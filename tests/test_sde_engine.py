import gc
import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import metrics, sde_engine
from mvsde.errors import DomainError
from mvsde.measures import Flow, Measure
from mvsde.sde_engine import SimConfig, simulate_frozen, simulate_many, step_times


def _const_flow(x=0.0):
    return Flow.constant(Measure.dirac([x]), [0.0])


def test_simconfig_validation():
    with pytest.raises(DomainError):
        SimConfig(0, 0.1, 0.0, 1.0, 0)
    with pytest.raises(DomainError):
        SimConfig(10, 0.0, 0.0, 1.0, 0)
    with pytest.raises(DomainError):
        SimConfig(10, 2.0, 0.0, 1.0, 0)  # dt > t1 - t0


def test_step_times_ragged_last_step():
    # 0.0625 / 1e-3 rounds to 62 steps; the last node is pinned to t1.
    times = step_times(SimConfig(500, 1e-3, 0.0, 0.0625, 3))
    assert len(times) == 63
    assert times[0] == 0.0 and times[-1] == 0.0625
    assert np.allclose(np.diff(times)[:-1], 1e-3, rtol=0, atol=1e-15)
    assert times[-1] - times[-2] == pytest.approx(0.0015, abs=1e-15)


def test_brownian_law(brownian_model):
    cfg = SimConfig(100_000, 1e-2, 0.0, 0.25, seed=3)
    flow = _const_flow()
    out = simulate_frozen(brownian_model, flow, flow, Measure.dirac([0.5]), cfg,
                          record_times=[0.0, 0.1, 0.25])
    for t, m in zip(out.times, out.measures):
        x = m.points[:, 0]
        se_mean = math.sqrt(max(t, 1e-300) / cfg.n_particles)
        assert abs(x.mean() - 0.5) <= 3 * se_mean + 1e-12
        if t > 0:
            se_var = t * math.sqrt(2.0 / cfg.n_particles)
            assert abs(x.var() - t) <= 3 * se_var


def test_determinism_bit_identical(brownian_model):
    cfg = SimConfig(5000, 1e-2, 0.0, 0.2, seed=17)
    flow = _const_flow()
    a = simulate_frozen(brownian_model, flow, flow, Measure.dirac([0.0]), cfg,
                        record_times=[0.0, 0.1, 0.2])
    b = simulate_frozen(brownian_model, flow, flow, Measure.dirac([0.0]), cfg,
                        record_times=[0.0, 0.1, 0.2])
    assert len(a.measures) == 3
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a.measures, b.measures))


def test_crn_couples_different_initials(brownian_model):
    cfg = SimConfig(20_000, 1e-2, 0.0, 0.25, seed=3)
    flow = _const_flow()
    a = simulate_frozen(brownian_model, flow, flow, Measure.dirac([0.0]), cfg,
                        record_times=[0.25])
    b = simulate_frozen(brownian_model, flow, flow, Measure.dirac([0.2]), cfg,
                        record_times=[0.25])
    assert np.allclose(b.measures[-1].points - a.measures[-1].points, 0.2, atol=1e-12)


def test_shifted_seeds_decouple(brownian_model):
    # The noise floor's shift: seeds s and s + 7919 draw independent noise,
    # so the difference of two Brownian increments has std sqrt(2 t).
    flow = _const_flow()
    init = Measure.dirac([0.0])
    n, t = 20_000, 0.25
    runs = []
    for seed in (3, 3 + 7919):
        cfg = SimConfig(n, 1e-2, 0.0, t, seed=seed)
        out = [simulate_frozen(brownian_model, flow, flow, init, cfg, record_times=[t])
               for _ in range(2)]
        assert np.array_equal(out[0].measures[-1].points, out[1].measures[-1].points)
        runs.append(out[0].measures[-1].points[:, 0])
    diff = runs[1] - runs[0]
    # the sample std of n normals is within 4 standard errors, sqrt(2 t / (2 n)) each
    assert abs(diff.std() - math.sqrt(2 * t)) <= 4 * math.sqrt(t / n)
    assert abs(np.corrcoef(runs[0], runs[1])[0, 1]) <= 4 / math.sqrt(n)


def test_flow_coverage_gap_raises(brownian_model):
    short = Flow([0.0, 0.1], (Measure.dirac([0.0]), Measure.dirac([0.0])))
    cfg = SimConfig(100, 1e-2, 0.0, 0.5, seed=0)
    with pytest.raises(DomainError):
        simulate_frozen(brownian_model, short, short, Measure.dirac([0.0]), cfg,
                        record_times=[0.5])


def test_record_times_validation(brownian_model):
    flow = _const_flow()
    cfg = SimConfig(100, 1e-2, 0.0, 0.5, seed=0)
    with pytest.raises(DomainError):
        simulate_frozen(brownian_model, flow, flow, Measure.dirac([0.0]), cfg,
                        record_times=[0.7])


def test_weak_order_one(tanh_drift_model):
    # Euler weak error against a fine-step reference scales like dt.
    flow = _const_flow()
    init = Measure.dirac([0.3])
    n = 400_000
    ref = simulate_frozen(tanh_drift_model, flow, flow, init,
                          SimConfig(n, 0.003125, 0.0, 0.5, seed=5),
                          record_times=[0.5]).measures[-1].points.mean()
    errs = []
    dts = [0.1, 0.05, 0.025]
    for dt in dts:
        out = simulate_frozen(tanh_drift_model, flow, flow, init,
                              SimConfig(n, dt, 0.0, 0.5, seed=5),
                              record_times=[0.5])
        errs.append(abs(out.measures[-1].points.mean() - ref))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.6 <= slope <= 1.4, f"weak-order slope {slope}, errors {errs}"


def test_displacement_tail_bound(mixed_model):
    # |b| <= b_sup and spectrum(sigma sigma*) <= K cap the displacement of all
    # but a Gaussian-tail fraction of particles.
    cfg = SimConfig(100_000, 1e-3, 0.0, 0.25, seed=9)
    flow = Flow.constant(Measure.dirac([1.0]), [0.0])
    out = simulate_frozen(mixed_model, flow, flow, Measure.dirac([1.0]), cfg,
                          record_times=[0.0, 0.25])
    disp = np.abs(out.measures[-1].points - out.measures[0].points).max(axis=1)
    c = mixed_model.constants
    bound = c.b_sup * 0.25 + 6.0 * math.sqrt(c.K * 0.25)
    assert np.mean(disp > bound) <= 1e-4


def test_particle_count_self_consistency(brownian_model):
    flow = _const_flow()
    init = Measure.dirac([0.0])

    def run(n, seed):
        cfg = SimConfig(n, 1e-2, 0.0, 0.25, seed=seed)
        return simulate_frozen(brownian_model, flow, flow, init, cfg,
                               record_times=[0.25]).measures[-1]

    a = metrics.wasserstein_1d(run(100_000, 1), run(100_000, 2), 1.0).value
    b = metrics.wasserstein_1d(run(100_000, 3), run(400_000, 4), 1.0).value
    assert a <= 2.0 * b + 0.005


def _moment_fit(model, x, cfg, ps):
    """Fit E|X_t - X_0|^p ~ C t^alpha by OLS in log-log over eight log-spaced
    horizons up to t1, under constant flows at x from a Dirac at x.

    Returns {p: (alpha, C)}.  Bounded coefficients force alpha >= p/2.
    """
    flow = _const_flow(x)
    horizons = np.geomspace(max(8 * cfg.dt, cfg.t1 * 1e-3), cfg.t1, 8)
    out = simulate_frozen(model, flow, flow, Measure.dirac([x]), cfg,
                          record_times=np.union1d(horizons, [0.0]))
    x0 = out.measures[0].points
    disp = [np.linalg.norm(m.points - x0, axis=1) for m in out.measures[1:]]
    fits = {}
    for p in ps:
        moments = [float(np.mean(d**p)) for d in disp]
        alpha, log_c = np.polyfit(np.log(out.times[1:]), np.log(moments), 1)
        fits[p] = (float(alpha), math.exp(log_c))
    return fits


def test_moment_check_brownian(brownian_model):
    cfg = SimConfig(100_000, 1e-3, 0.0, 0.25, seed=5)
    fits = _moment_fit(brownian_model, 0.0, cfg, (2, 4))
    alpha2, _ = fits[2]
    assert abs(alpha2 - 1.0) <= 0.05
    assert alpha2 >= 2 / 2 - 0.1
    alpha4, c4 = fits[4]
    assert abs(alpha4 - 2.0) <= 0.1
    assert c4 == pytest.approx(3.0, rel=0.15)  # Gaussian fourth moment 3 t^2


def test_moment_check_bounded_drift(arctan_model):
    cfg = SimConfig(50_000, 1e-3, 0.0, 0.25, seed=6)
    alpha, _ = _moment_fit(arctan_model, 1.0, cfg, (2,))[2]
    assert alpha >= 0.95


def test_two_dimensional_diagonal_diffusion():
    from mvsde.coefficients import Model

    model = Model.from_json({
        "name": "diag2d", "dim": 2,
        "drift": [{"op": "const", "value": 0.0}, {"op": "const", "value": 0.0}],
        "diffusion": {"kind": "diag", "exprs": [{"op": "const", "value": 1.0},
                                                {"op": "const", "value": 0.5}]},
        "constants": {"K": 4.5, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 0.0},
    })
    flow = Flow.constant(Measure.dirac([0.0, 0.0]), [0.0])
    cfg = SimConfig(50_000, 1e-2, 0.0, 0.25, seed=8)
    out = simulate_frozen(model, flow, flow, Measure.dirac([0.0, 0.0]), cfg,
                          record_times=[0.25])
    x = out.measures[-1].points
    se = 0.25 * math.sqrt(2.0 / cfg.n_particles)
    assert abs(x[:, 0].var() - 0.25) <= 3 * se
    assert abs(x[:, 1].var() - 0.25 * 0.25) <= 3 * se


def test_record_times_closer_than_the_tolerance_raise(brownian_model):
    # The schedule merges nodes closer than the time tolerance; the run used
    # to return the law at 0.05 only and never record 0.1.
    flow = _const_flow()
    cfg = SimConfig(100, 1e-3, 0.0, 0.2, seed=1)
    with pytest.raises(DomainError, match="record time"):
        simulate_frozen(brownian_model, flow, flow, Measure.dirac([0.0]), cfg,
                        record_times=[0.05, 0.05 + 1e-13, 0.1])


# ---------------------------------------------------------------------------
# Bit identity with full-batch evaluation at every step


def _time_model():
    # time in the drift, and time only inside the diffusion's integral argument
    from mvsde.coefficients import Model

    time, x = {"op": "time"}, {"op": "coord", "index": 0}
    return Model.from_json({
        "name": "timed", "dim": 1,
        "drift": [{"op": "lincomb", "const": 0.1, "terms": [
            {"coef": 0.5, "arg": time},
            {"coef": 0.2, "arg": {"op": "tanh", "arg": {"op": "integral", "arg": x}}}]}],
        "diffusion": {"kind": "scalar", "exprs": [{"op": "lincomb", "const": 1.0, "terms": [
            {"coef": 0.1, "arg": {"op": "tanh", "arg": {"op": "integral", "arg": {
                "op": "lincomb", "terms": [{"coef": 3.0, "arg": time},
                                           {"coef": 1.0, "arg": {"op": "norm"}}]}}}}]}]},
        "constants": {"K": 2.0, "k": 1.0, "eta": 1.0, "beta": 1.0, "b_sup": 1.0},
    })


KERNEL_MODELS = ["arctan_model", "tanh_model", "mixed_model", "space_sigma_model",
                 "tanh_drift_model", "timed"]


def _kernel_model(request, name):
    return _time_model() if name == "timed" else request.getfixturevalue(name)


def _varying_flow(t1, nodes, seed):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, t1, nodes)
    return Flow(times, tuple(Measure.from_points(rng.normal(0.3 * i, 1.0 + 0.1 * i, (40, 1)))
                             for i in range(nodes)))


def _philox_block(seed, step, shape):
    """Noise block ``step``: Philox keyed by (seed, 0), the step in the top counter word."""
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    counter = np.array([0, 0, 0, step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).standard_normal(shape)


def _reference_euler(model, mu_flow, nu_flow, init, cfg, record_times):
    """Euler loop evaluating drift and sigma on every row at every step via Flow.at."""
    from mvsde.coefficients import drift_batch, sigma_batch

    grid = np.union1d(step_times(cfg), record_times)
    X = init.points.copy()
    laws = [X.copy()] if grid[0] in record_times else []
    for step in range(len(grid) - 1):
        t, h = grid[step], grid[step + 1] - grid[step]
        s = sigma_batch(model, t, X, nu_flow.at(t))
        noise = s * (_philox_block(cfg.seed, step, X.shape) * math.sqrt(h))
        if model.constants.b_sup > 0:
            X = X + drift_batch(model, t, X, mu_flow.at(t)) * h + noise
        else:
            X = X + noise
        if grid[step + 1] in record_times:
            laws.append(X.copy())
    return laws


@pytest.mark.parametrize("nodes", [9, 1])
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_kernel_matches_full_batch_euler(request, name, nodes):
    # 0.0625 / 1e-3 gives a ragged last step; 0.0205 splits a step in two;
    # an odd particle count leaves a tail after any SIMD block.
    model = _kernel_model(request, name)
    cfg = SimConfig(301, 1e-3, 0.0, 0.0625, seed=4)
    mu = _varying_flow(cfg.t1, nodes, 1)
    nu = _varying_flow(cfg.t1, nodes, 2)
    init = Measure.from_points(np.random.default_rng(3).normal(0.5, 1.0, (301, 1)))
    record = np.array([0.0, 0.0205, 0.04, 0.0625])
    out = simulate_frozen(model, mu, nu, init, cfg, record_times=record)
    ref = _reference_euler(model, mu, nu, init, cfg, record)
    assert np.array_equal(out.times, record)
    assert len(ref) == len(out.measures) == len(record)
    assert all(np.array_equal(m.points, x) for m, x in zip(out.measures, ref))


@pytest.mark.parametrize("name, drift_calls, sigma_calls", [
    ("arctan_model", 8, 8),        # per flow node: nothing reads state or time
    ("mixed_model", 8, 8),
    ("tanh_drift_model", 63, 8),   # the drift reads the state: every step
    ("space_sigma_model", 0, 63),  # b_sup = 0: no drift evaluated
    ("timed", 63, 63),             # time in drift and in sigma's integral: every step
])
def test_kernel_evaluates_each_coefficient_as_often_as_it_reads(
        request, monkeypatch, name, drift_calls, sigma_calls):
    from mvsde import sde_engine

    model = _kernel_model(request, name)
    counts = {"drift_batch": 0, "sigma_batch": 0}
    for fn in counts:
        original = getattr(sde_engine, fn)

        def counting(*args, _fn=fn, _original=original):
            counts[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(sde_engine, fn, counting)
    cfg = SimConfig(301, 1e-3, 0.0, 0.0625, seed=4)
    flow = _varying_flow(cfg.t1, 9, 1)
    init = Measure.from_points(np.random.default_rng(3).normal(0.5, 1.0, (301, 1)))
    simulate_frozen(model, flow, flow, init, cfg, record_times=[0.0205, 0.0625])
    # 62 steps, one of them split at 0.0205: 63 schedule steps; the flow's
    # 9th node is t1, so the steps read its first 8
    assert counts == {"drift_batch": drift_calls, "sigma_batch": sigma_calls}


# ---------------------------------------------------------------------------
# Stacked runs and the noise drawn ahead


_T1S = (0.0625, 0.04, 0.05)  # 0.0625 / 1e-3 leaves a ragged last step
_RECORD = (0.0, 0.0205, 0.03125, 0.0371)  # all but 0.0 off the step grids


def _pools():
    rng = np.random.default_rng(3)
    flows = (_varying_flow(0.0625, 9, 1), _varying_flow(0.0625, 1, 2))
    inits = (Measure.from_points(rng.normal(0.5, 1.0, (37, 1))), Measure.dirac([0.2]))
    return flows, inits


_FLOWS, _INITS = _pools()


@st.composite
def _stack(draw):
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        t1 = draw(st.sampled_from(_T1S))
        cfg = SimConfig(draw(st.sampled_from([37, 50])), draw(st.sampled_from([1e-3, 2.5e-3])),
                        0.0, t1, seed=draw(st.sampled_from([4, 5])))
        record = draw(st.lists(st.sampled_from([t for t in _RECORD if t < t1] + [t1]),
                               min_size=1, max_size=3, unique=True))
        mu, nu = draw(st.sampled_from(_FLOWS)), draw(st.sampled_from(_FLOWS))
        runs.append((mu, nu, draw(st.sampled_from(_INITS)), cfg, record))
    return runs


def _same_flow(a, b):
    return (np.array_equal(a.times, b.times) and len(a.measures) == len(b.measures)
            and all(np.array_equal(x.points, y.points) and np.array_equal(x.weights, y.weights)
                    for x, y in zip(a.measures, b.measures)))


@pytest.mark.parametrize("name", ["mixed_model", "tanh_drift_model", "space_sigma_model"])
@settings(max_examples=25, deadline=None)
@given(runs=_stack())
def test_stack_matches_standalone_runs(request, name, runs):
    # Shared inits and flows make some runs share state until their ragged
    # horizons or off-grid record times split their schedules.
    model = request.getfixturevalue(name)
    stacked = simulate_many(model, runs)
    assert len(stacked) == len(runs)
    for run, flow in zip(runs, stacked):
        assert _same_flow(flow, simulate_frozen(model, *run))


def _counting(monkeypatch, name, calls):
    original = getattr(sde_engine, name)

    def count(*args):
        calls.append(threading.current_thread())
        return original(*args)

    monkeypatch.setattr(sde_engine, name, count)


def test_identical_runs_share_state_until_their_nodes_differ(arctan_model, monkeypatch):
    # The three horizons of the Duhamel check: one noise block per step index;
    # 0.0625 forks off where its ragged last step begins.
    flow = _const_flow(1.0)
    init = Measure.dirac([1.0])
    runs = [(flow, flow, init, SimConfig(300, 1e-3, 0.0, t1, seed=24), [t1])
            for t1 in (0.0625, 0.125, 0.25)]
    draws, updates = [], []
    _counting(monkeypatch, "_step_noise", draws)
    original = sde_engine._Run.update
    monkeypatch.setattr(sde_engine._Run, "update",
                        lambda self, *a: updates.append(1) or original(self, *a))
    stacked = simulate_many(arctan_model, runs)
    assert len(draws) == 250 and len(updates) == 251
    monkeypatch.undo()
    for run, flow_out in zip(runs, stacked):
        assert _same_flow(flow_out, simulate_frozen(arctan_model, *run))


def test_runs_with_shifted_seeds_draw_their_own_blocks(brownian_model, monkeypatch):
    # Stacked runs share a block only when they share the seed.
    flows, inits = _pools()
    cfg = SimConfig(40, 1e-2, 0.0, 0.05, seed=3)
    runs = [(flows[0], flows[0], inits[0], cfg, [0.05]),
            (flows[0], flows[0], inits[1], replace(cfg, seed=3 + 7919), [0.05])]
    draws = []
    _counting(monkeypatch, "_step_noise", draws)
    a, b = simulate_many(brownian_model, runs)
    assert len(draws) == 10
    diff = b.measures[-1].points - a.measures[-1].points
    assert not np.allclose(diff, diff[0])


def test_noise_is_read_once_per_step_on_the_calling_thread(tanh_drift_model, monkeypatch):
    draws = []
    _counting(monkeypatch, "_step_noise", draws)
    cfg = SimConfig(301, 1e-3, 0.0, 0.0625, seed=4)
    flow = _varying_flow(cfg.t1, 9, 1)
    init = Measure.from_points(np.random.default_rng(3).normal(0.5, 1.0, (301, 1)))
    simulate_frozen(tanh_drift_model, flow, flow, init, cfg, record_times=[0.0205, 0.0625])
    assert len(draws) == 63  # 62 steps, one split at 0.0205
    assert all(t is threading.main_thread() for t in draws)
    draws.clear()
    gamma = Measure.dirac([0.3])
    simulate_many(tanh_drift_model, [(flow, flow, init, cfg, [0.0625]),
                                     (flow, flow, gamma, cfg, [0.0625])])
    assert len(draws) == 62


def _long_run(model, seed=11):
    flow = _const_flow(0.3)
    cfg = SimConfig(3000, 1e-3, 0.0, 0.1, seed=seed)  # 100 steps over several ring chunks
    return (flow, flow, Measure.dirac([0.3]), cfg, [0.05, 0.1])


def test_a_failed_simulation_leaves_no_thread(tanh_drift_model, monkeypatch):
    before = threading.active_count()
    calls = []
    original = sde_engine.drift_batch

    def failing(*args):
        calls.append(1)
        if len(calls) == 10:
            raise RuntimeError("injected")
        return original(*args)

    monkeypatch.setattr(sde_engine, "drift_batch", failing)
    with pytest.raises(RuntimeError, match="injected"):
        simulate_frozen(tanh_drift_model, *_long_run(tanh_drift_model))
    assert threading.active_count() == before
    monkeypatch.undo()
    out = simulate_frozen(tanh_drift_model, *_long_run(tanh_drift_model))
    assert threading.active_count() == before
    assert len(out.measures) == 2


@pytest.mark.parametrize("workers", [1, 8])
def test_any_worker_count_draws_the_same_bits(tanh_drift_model, monkeypatch, workers):
    # 8 workers on fewer cores, switching threads every 10 us, stress the
    # ring: a chunk refilled before the loop is done with it changes bits.
    runs = [_long_run(tanh_drift_model), _long_run(tanh_drift_model, seed=12)]
    many = simulate_many(tanh_drift_model, runs)
    monkeypatch.setattr(sde_engine, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        other = simulate_many(tanh_drift_model, runs)
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_flow(a, b) for a, b in zip(many, other))


def test_the_ring_is_freed_when_its_generator_closes(tanh_drift_model, monkeypatch):
    # Freed by reference counting, not by the cycle collector: rings left
    # for the collector raised the peak RSS of a solve by 20 MB.
    before = threading.active_count()
    refs = []
    step_noise, update = sde_engine._step_noise, sde_engine._Run.update

    def recording(stream):
        z = step_noise(stream)
        if not refs:
            refs.extend(weakref.ref(buf) for buf in stream.gi_frame.f_locals["ring"])
        return z

    def failing(self, step, z):
        if step == 30:
            raise RuntimeError("injected")
        return update(self, step, z)

    def freed():
        return (len(refs) == 3 and all(ref() is None for ref in refs)
                and threading.active_count() == before)

    monkeypatch.setattr(sde_engine, "_step_noise", recording)
    gc.disable()
    try:
        simulate_frozen(tanh_drift_model, *_long_run(tanh_drift_model))
        assert freed()
        refs.clear()
        with monkeypatch.context() as m:
            m.setattr(sde_engine._Run, "update", failing)
            with pytest.raises(RuntimeError, match="injected"):
                simulate_frozen(tanh_drift_model, *_long_run(tanh_drift_model))
        assert freed()
        refs.clear()
        stream = sde_engine._noise_ahead([(11, step, (3000, 1)) for step in range(100)])
        recording(stream)  # the first block: every chunk in the ring is queued
        assert threading.active_count() == before + 2
        stream.close()
        assert freed()
    finally:
        gc.enable()
