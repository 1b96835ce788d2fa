"""One real-number rule for the whole public API: ``tasks.real_in``.

Every callable in ``qccp.__all__``, and every public classmethod of a class
there, with a real-valued scalar parameter (the set-up's trigger rate, window,
eta, visibility and gamma, and the statistics' sigma, classical bound, z and
bin width) has a case in CASES, so a new entry point without one fails
``test_every_real_taking_callable_has_a_case``.  For
each case, text, complex, None or an array of values raises a TypeError that
names the argument, and NaN, inf or a value outside the argument's interval a
ValueError that names it.  A numpy scalar or 0-d array gives the result a
Python float gives, and constructors store a plain ``float``.
"""

import dataclasses
import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import qccp
from qccp import (
    ExperimentParams,
    Runs,
    SuccessStats,
    Task,
    WindowChoice,
    binomial_probability,
    block_histogram,
    experimental_fidelity,
    gamma_from_visibility,
    optimize_window,
    plus_probability,
    predicted_success,
    run_quantum,
    run_quantum_batch,
    sigma_violation,
    visibility_from_gamma,
    wilson_interval,
)
from qccp.cli import main
from qccp.sampling import RandomStream
from support import plain, public_callables

REAL_PARAMETERS = {
    "trigger_rate", "window", "eta", "visibility", "gamma", "sigma", "classical_p", "z", "bin_width", "p",
}
RESULT = WindowChoice  # a named tuple whose fields carry these names, made by optimize_window

PHASES = np.array([[0.3, 1.2, 5.0], [2.0, 0.1, 4.4]])
STATS = SuccessStats(1000, 700, 0.0145)
RUNS = Runs(
    inputs=np.zeros((20, 2), dtype=np.int64),
    trigger_count=np.ones(20, dtype=np.int64),
    detected=np.ones(20, dtype=bool),
    answer=np.where(np.arange(20) % 3, 1, -1),
    truth=np.ones(20, dtype=np.int64),
)


def rng():
    return RandomStream(5, 0).generator()


def params(**reals):
    return ExperimentParams(Task.A, n_parties=2, n_target=20, **reals)


def no_floats(result):
    return ()


# name: (call taking the reals by keyword, valid reals, a value outside each
# one's interval, the reals the result stores)
CASES = {
    "optimize_window": (optimize_window, {"trigger_rate": 5000.0}, {"trigger_rate": 0.0}, no_floats),
    "gamma_from_visibility": (
        lambda visibility: gamma_from_visibility(Task.B, visibility),
        {"visibility": 0.9}, {"visibility": 1.5}, no_floats,
    ),
    "visibility_from_gamma": (
        lambda gamma: visibility_from_gamma(Task.B, gamma), {"gamma": 0.8}, {"gamma": 0.9}, no_floats,
    ),
    "ExperimentParams": (
        params,
        {"trigger_rate": 5000.0, "window": 2e-4, "eta": 0.452, "visibility": 0.932},
        {"trigger_rate": -1.0, "window": 0.0, "eta": 1.5, "visibility": -0.1},
        lambda p: (p.trigger_rate, p.window, p.eta, p.visibility),
    ),
    "predicted_success": (
        predicted_success, {"eta": 0.452, "gamma": 0.966}, {"eta": -0.5, "gamma": 1.25}, no_floats,
    ),
    "experimental_fidelity": (
        experimental_fidelity, {"eta": 0.471, "gamma": 0.858}, {"eta": 2.0, "gamma": -0.1}, no_floats,
    ),
    "plus_probability": (
        lambda visibility: plus_probability(Task.B, PHASES, visibility),
        {"visibility": 0.7}, {"visibility": 1.01}, no_floats,
    ),
    "run_quantum_batch": (
        lambda visibility: run_quantum_batch(Task.B, PHASES, visibility, rng()),
        {"visibility": 0.7}, {"visibility": -1.0}, no_floats,
    ),
    "run_quantum": (
        lambda visibility: run_quantum(Task.B, PHASES[0], visibility, rng()),
        {"visibility": 0.7}, {"visibility": 3.0}, no_floats,
    ),
    "SuccessStats": (
        lambda sigma: SuccessStats(10, 7, sigma), {"sigma": 0.1}, {"sigma": -0.1}, lambda s: (s.sigma,),
    ),
    "sigma_violation": (
        lambda classical_p: sigma_violation(STATS, classical_p),
        {"classical_p": 0.625}, {"classical_p": 1.5}, no_floats,
    ),
    "binomial_probability": (
        lambda p: binomial_probability(10, p, lambda k: k < 4), {"p": 0.3}, {"p": 1.5}, no_floats,
    ),
    "wilson_interval": (lambda z: wilson_interval(STATS, z), {"z": 2.0}, {"z": 0.0}, no_floats),
    "block_histogram": (
        lambda bin_width: block_histogram(RUNS, 5, bin_width),
        {"bin_width": 0.05}, {"bin_width": 1.5}, no_floats,
    ),
}

CASE_PARAMETERS = [(name, param) for name, (_, reals, _, _) in CASES.items() for param in reals]

# value: the error it raises, whatever the argument's interval
NOT_REAL = {"text": ("0.5", TypeError), "complex": (0.5 + 0j, TypeError), "none": (None, TypeError),
            "array": (np.array([0.5, 0.5]), TypeError), "nan": (math.nan, ValueError),
            "inf": (math.inf, ValueError), "minus-inf": (-math.inf, ValueError)}


def real_parameters(obj) -> set[str]:
    try:
        return set(inspect.signature(obj).parameters) & REAL_PARAMETERS
    except (TypeError, ValueError):  # no signature to read
        return set()


def test_every_real_taking_callable_has_a_case():
    taking = {name: real_parameters(obj) for name, obj in public_callables() if obj is not RESULT}
    assert {name for name, reals in taking.items() if reals} == set(CASES)
    for name, (_, reals, bad, _) in CASES.items():
        assert set(reals) == set(bad) == taking[name], name


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("name, param", CASE_PARAMETERS)
def test_value_that_is_not_a_real_in_range_is_refused_by_name(name, param, kind):
    call, reals, _, _ = CASES[name]
    call(**reals)  # the other reals are valid
    value, error = NOT_REAL[kind]
    with pytest.raises(error, match=f"^{param}"):
        call(**{**reals, param: value})


@pytest.mark.parametrize("name, param", CASE_PARAMETERS)
def test_value_outside_the_interval_is_refused_by_name(name, param):
    call, reals, bad, _ = CASES[name]
    with pytest.raises(ValueError, match=f"^{param}.* must .*, got {bad[param]!r}$"):
        call(**{**reals, param: bad[param]})


@pytest.mark.parametrize("wrap", [np.float64, np.array], ids=["scalar", "0-d array"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_numpy_reals_give_what_floats_give_and_are_stored_as_floats(name, wrap):
    call, reals, _, stored = CASES[name]
    got = call(**{param: wrap(value) for param, value in reals.items()})
    assert plain(got) == plain(call(**reals))
    assert all(type(value) is float for value in stored(got))


def test_bools_and_ints_are_stored_as_floats():
    p = params(trigger_rate=5000, window=2e-4, eta=True, visibility=np.int64(1))
    assert (p.trigger_rate, p.eta, p.visibility) == (5000.0, 1.0, 1.0)
    assert all(type(v) is float for v in (p.trigger_rate, p.eta, p.visibility))
    record = dataclasses.asdict(p)
    assert '"eta": 1.0' in json.dumps({**record, "task": record["task"].value})
    assert type(SuccessStats(10, 7, np.float32(0.5)).sigma) is float


def test_nan_classical_bound_is_refused():
    with pytest.raises(ValueError, match=r"^classical_p must lie in \[0, 1\], got nan$"):
        sigma_violation(STATS, math.nan)


def test_half_lines_keep_their_words():
    with pytest.raises(ValueError, match=r"^sigma must be non-negative and finite, got inf$"):
        SuccessStats(10, 7, math.inf)
    with pytest.raises(ValueError, match=r"^z must be positive and finite, got -1\.0$"):
        wilson_interval(STATS, -1.0)
    with pytest.raises(ValueError, match=r"^bin_width must lie in \(0, 1\], got 0\.0$"):
        block_histogram(RUNS, 5, 0.0)


def test_the_rule_itself():
    from qccp.tasks import real_in

    assert real_in("x", Fraction(1, 4), 0.0, 1.0) == 0.25
    assert real_in("x", np.bool_(True), 0.0, 1.0) == 1.0
    assert real_in("x", np.array(7, dtype=np.uint8), 0.0, open_low=True) == 7.0
    assert real_in("x", 1e308, 0.0, open_low=True) == 1e308
    assert real_in("x", 0.0, 0.0) == 0.0 and real_in("x", 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError, match=r"^x must be positive and finite, got 0\.0$"):
        real_in("x", 0.0, 0.0, open_low=True)
    with pytest.raises(ValueError, match="^x must be positive and finite, got 1000"):
        real_in("x", 10**400, 0.0, open_low=True)  # an int past float's range
    for value in (np.array([0.5]), np.array(0.5j), np.array("0.5"), b"1", [0.5]):
        with pytest.raises(TypeError, match="^x must be a real number, got "):
            real_in("x", value, 0.0, 1.0)


def test_gamma_message_names_the_task_whose_top_it_is():
    with pytest.raises(ValueError, match=r"^gamma \(task B\) must lie in \[0\.5, 0\.892699\], got 0\.95$"):
        visibility_from_gamma(Task.B, 0.95)
    assert visibility_from_gamma(Task.A, 1) == 1.0


def test_runs_inputs_outside_every_task_domain_are_refused():
    window = dict(trigger_count=[1, 1], detected=[False, False], answer=[1, 1], truth=[1, 1])
    for inputs in ([[9, -4], [2, 0]], [[math.nan, 0.0], [1.0, 2.0]], [[7.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="^inputs must be task A digits or task B phases: "):
            Runs(inputs, **window)
    digits = Runs([[True, False], [3, 1]], **window).inputs
    assert digits.dtype == np.int64 and digits.tolist() == [[1, 0], [3, 1]]
    assert Runs(np.array([[6.2, 0.0], [1.0, 2.0]], dtype=np.float32), **window).inputs.dtype == np.float64


@pytest.mark.parametrize("key", ["eta", "visibility"])
@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf"])
def test_bad_eta_or_visibility_in_a_config_names_file_line_and_flag(capsys, tmp_path, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"task = A\n{key} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(config)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"config {config}:2 ({key} = {value}): argument --{key}: value must lie in [0, 1]" in err


def test_gamma_stays_a_run_time_check(capsys):
    assert main(["experiment", "--task", "B", "--gamma", "0.95", "--n-target", "10"]) == 2
    assert "error: gamma (task B) must lie in [0.5, 0.892699], got 0.95" in capsys.readouterr().err


def test_product_strategy_b_keeps_its_cell_lookup_private():
    assert not hasattr(qccp.ProductStrategyB, "cell_index")
