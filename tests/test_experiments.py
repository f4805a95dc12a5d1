import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import sglab
from sglab import experiments
from sglab.experiments import (
    EXACT_FAMILIES,
    SPECTRA,
    linear_transform_cases,
    manifold_run,
    residual_study,
    spectrum_ladder,
    transform_identity_cases,
    vacuum_rate_check,
    wobbler_orbit,
)
from sglab.grids import GridSpec, ParameterError, PerturbationPair, local_energy_norm
from sglab.inputs import smooth_random
from sglab.solutions import KinkParams


def test_residual_study_kink_orders_are_two():
    name, sampler, model = EXACT_FAMILIES[0]
    grid = GridSpec(-20.0, 20.0, 801)
    residuals, orders = residual_study(sampler, model, grid, 0.7, 0.5 * grid.h, 3)
    assert name == "kink" and len(residuals) == 3 and len(orders) == 2
    assert residuals[0] > residuals[1] > residuals[2]
    assert all(abs(order - 2.0) <= 0.05 for order in orders)


def test_residual_study_refuses_families_that_left_the_grid():
    # a kink 600 units off the grid is flat at t and t +- dt; its residuals
    # are subnormal but nonzero, and their orders (near 2) measure round-off
    grid = GridSpec(-20.0, 20.0, 801)
    _, kink_sampler, model = EXACT_FAMILIES[0]
    with pytest.raises(ParameterError, match="flat on the grid at t = 1000"):
        residual_study(kink_sampler, model, grid, 1000.0, 0.5 * grid.h, 3)
    # the breather is identically 0 at t = 0 but not at t +- dt; it is odd in
    # time, so its residual is exactly 0 there and leaves no order to
    # measure, while just after t = 0 it is measured
    _, breather_sampler, model = EXACT_FAMILIES[1]
    assert residual_study(breather_sampler, model, grid, 0.0, 0.5 * grid.h, 3) == ([0.0], [])
    residuals, orders = residual_study(breather_sampler, model, grid, 0.1, 0.5 * grid.h, 3)
    assert all(abs(order - 2.0) <= 0.05 for order in orders)


def test_transform_cases_are_at_round_off():
    identity = transform_identity_cases(GridSpec(-20.0, 20.0, 801), (0.3,), (0.0, 1.3))
    assert [label for label, _ in identity] == [
        "kink-from-vacuum identity beta=0.3", "wobbler-breather identity beta=0.3 t=0.0",
        "wobbler-breather identity beta=0.3 t=1.3"]
    linear = linear_transform_cases(GridSpec(-30.0, 30.0, 801), 0.9)
    assert [label.split(" (")[0] for label, _ in linear] == (
        ["sg linear transform"] * 2 + ["zero-mode transform"] * 2
        + ["phi4 linear transform"] * 4
        + ["phi4 dual transform sign=+1", "phi4 dual transform sign=-1"])
    assert all(value <= 1e-13 for _, value in identity + linear)


def test_spectrum_ladder_refuses_a_grid_that_halves_to_an_even_count():
    # 4003 points halve to 2002, which no spectrum solve takes: the ladder
    # names the grid it was given before it solves on any
    _, op, exact = SPECTRA[0]
    with pytest.raises(ParameterError) as err:
        spectrum_ladder(op, GridSpec(-30.0, 30.0, 4003), exact)
    assert str(err.value) == ("grid.n_points must be 1 mod 4 (the halved grid needs an odd "
                              "count), got 4003")


def test_unperturbed_wobbler_stays_at_scheme_floor():
    # measured: 6.7e-14 at t = 0 (the search's resolution in the shift), and
    # at most 8.0e-4 over T = 8 at h = 0.04, dt = 0.02 (2.0e-4 at half of both);
    # eta = 0 adds signed zeros, which leave the wobbler's samples unchanged
    traj, distances = wobbler_orbit(GridSpec(-40.0, 40.0, 2001), 0.3, 0.0,
                                    np.random.default_rng(0), 0.02, 8.0, 2.0)
    assert len(distances) == len(traj) == 5
    assert distances[0] <= 1e-7
    assert max(distances) <= 1.2e-3


@pytest.fixture(scope="module")
def small_manifold_run():
    grid = GridSpec(-20.0, 20.0, 4001)
    y0 = 0.04 * smooth_random(grid, "odd", 1.0, np.random.default_rng(1))
    traj, records = manifold_run(grid, y0, 0.005, 2.0, 0.5, (-3.0, 4.0))
    return grid, y0, traj, records


def test_manifold_run_tracks_every_snapshot(small_manifold_run):
    grid, _, traj, records = small_manifold_run
    assert len(traj) == len(records) == 5
    assert [r.t for r in records] == traj.times
    # each record's norm is the tracked remainder's, on the run's interval
    for i, r in enumerate(records):
        st, prof = traj.state(i), KinkParams(0.0, r.rho)
        remainder = PerturbationPair(grid, st.u - prof.q(grid.x), st.v - prof.q_t(grid.x))
        assert r.local_norm == local_energy_norm(remainder, (-3.0, 4.0))
    assert float(np.max(np.abs(traj.momenta))) <= 1e-5


def test_vacuum_rate_check_fills_bounds_and_rejects_misaligned_records(small_manifold_run):
    grid, y0, _, records = small_manifold_run
    check = vacuum_rate_check(grid, y0, records, 0.005, 2.0, 0.5)
    assert len(check["bounds"]) == len(check["rate_ratios"]) == len(records)
    assert min(check["bounds"]) > 0
    # a twin snapshotted every 1.0 puts its second snapshot at t = 1, not 0.5
    with pytest.raises(ParameterError, match="not aligned"):
        vacuum_rate_check(grid, y0, records, 0.005, 2.0, 1.0)
    # more records than the twin has snapshots
    with pytest.raises(ParameterError, match="not aligned"):
        vacuum_rate_check(grid, y0, records, 0.005, 1.0, 0.5)


def test_package_import_does_not_load_experiments():
    # the cells pull in the evolver, tracker and transform solvers; a bare
    # ``import sglab`` stays without them
    src = str(Path(sglab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c",
                          "import sys, sglab; print('sglab.experiments' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_exports_exactly_the_pinned_names():
    # a name joins the namespace only with a caller outside the tests
    public = {n for n, v in vars(sglab).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set("""
        ContractError EvolveConfig FieldState GridSpec KinkFrame KinkParams
        LiftReport Model ModulationRecord PHI4 ParameterError PerturbationPair SINE_GORDON
        SchrodingerOperator SolutionSampler SolverError ThreeSolitonParams Trajectory
        TubeExitError WeightSpec WobblerParams breather bt_pair_residual
        construct_manifold_data convergence_classifier derivative descend_kink_to_zero
        descend_wobbler_to_breather discrete_spectrum energy evolve final_speed_from_delta
        final_speed_from_momentum kink kink_phi4_dual_operator kink_phi4_operator
        kink_profile kink_sg_operator lbt_residual_phi4 lbt_residual_phi4_dual
        lbt_residual_sg lift_breather_to_wobbler lift_with_orthogonality lift_zero_to_kink
        linear_mode local_energy_norm manifold_momentum momentum multiplier_from_speed
        parity_check pde_residual
        phi4_kink quadrature rho_rate_check
        stilde_bound_check three_soliton tilde_residual track_modulation two_kink
        weighted_norm_sq wobbler zero_sampler""".split())


# exported with no library caller, each for a stated reason
_EXPORTED_FOR_USERS = {
    "save_pair",  # the README names it as the writer of a config's input_file
    "stilde_bound_check",  # the per-snapshot transform check of ROADMAP item 5
}


def test_every_exported_function_has_a_library_caller():
    # a function or constant in a module's __all__ is called by another
    # module of src/sglab (re-exports in __init__ do not count) or by bench/;
    # classes are exempt, since they are return and exception types.  A public
    # method or property of a class in src/sglab is called when its name is
    # an attribute (``obj.name``) somewhere in src/sglab or bench/; a plain
    # name would match every local variable of that name
    root = Path(sglab.__file__).resolve().parents[2]
    trees = {p.stem: ast.parse(p.read_text()) for p in (root / "src" / "sglab").glob("*.py")}
    bench = [ast.parse(p.read_text()) for p in (root / "bench").glob("*.py")]

    def referenced(tree):
        return {getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None) for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}

    refs = {m: referenced(t) for m, t in trees.items() if m != "__init__"}
    bench_refs = set().union(*map(referenced, bench))
    uncalled = set()
    for module, tree in trees.items():
        exported = next((ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign)
                         and any(getattr(t, "id", None) == "__all__" for t in node.targets)),
                        [])
        classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        callers = bench_refs.union(*(r for m, r in refs.items() if m != module))
        uncalled |= {name for name in exported if name not in classes | callers}
    attributes = {node.attr for tree in [*trees.values(), *bench] for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    uncalled |= {f"{cls.name}.{node.name}" for tree in trees.values() for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                 and node.name not in attributes}
    assert uncalled == _EXPORTED_FOR_USERS


def test_every_private_definition_is_read():
    # a module-level private function, class or constant of a module of
    # src/sglab is read there, or read by a module that imports it; an import
    # or the definition itself does not count, so a helper whose last caller
    # went fails
    modules = {p.stem: ast.parse(p.read_text())
               for p in Path(sglab.__file__).parent.glob("*.py")}

    def private(tree):
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        return {name for name in names if name.startswith("_") and not name.endswith("__")}

    def read(tree):
        return {getattr(node, "id", None) or node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}

    def imports(tree, module):
        return {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == module
                for alias in node.names}

    reads = {module: read(tree) for module, tree in modules.items()}
    definitions = [(module, name) for module, tree in modules.items() for name in private(tree)]
    unread = [(module, name) for module, name in definitions
              if name not in reads[module]
              and not any(name in imports(tree, module) and name in reads[other]
                          for other, tree in modules.items())]
    assert len(definitions) > 50  # the walk found the definitions
    assert unread == []


def test_experiments_exports_exactly_the_pinned_cells():
    # a cell joins only with a recipe and a criterion that call it
    assert set(experiments.__all__) == {
        "EXACT_FAMILIES", "SPECTRA", "residual_study", "transform_identity_cases",
        "linear_transform_cases", "spectrum_ladder", "relative_drift", "wobbler_orbit",
        "manifold_run", "vacuum_rate_check"}
