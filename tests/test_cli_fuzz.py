"""Fuzz every input the command line reads.

Each example draws a valid input and then corrupts up to two of its nodes:
a value is replaced by a wrong type, NaN or an infinity, +-1e308, a huge
integer or a small bad number, deleted, or nested one level deeper. The
inputs are diagonalize configs over the whole schema (the four model
families with prefix gates, the four ansatz sources, opt, opt.lr, init and
output), params and Hamiltonian files for verify, models for liedim and
trace files for trace-export. Each example runs `main` in process and
checks that:

* the exit code is one the module docstring of paulidiag.cli documents,
  and no exception escapes;
* no warning is issued and stderr holds no traceback;
* an exit-1 error line names the key path, option or file it rejects;
* every file main writes is strict JSON (NaN and infinities rejected).

The runs are bounded: qubit counts are drawn from [1, 6] and max_iters
from [0, 15]. Huge values replace only what validation must reject before
any allocation, or what costs nothing to accept: max_iters never takes
one, since an unbounded max_iters is accepted. Examples are derandomized
with a fixed count.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paulidiag.cli import main

FUZZ = dict(derandomize=True, database=None, deadline=None,
            suppress_health_check=list(HealthCheck))

WRONG_TYPE = st.one_of(
    st.none(), st.booleans(), st.text("XYZI0.e-", max_size=4),
    st.just([]), st.just({}), st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "kind"]), st.integers(0, 2), max_size=1),
)
BAD_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 0.5, -0.5])
HUGE = st.sampled_from([1e308, -1e308, 2**64, -2**63, 10**30, 10**400])
DELETE, NEST = object(), object()


def nodes(value, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from nodes(child, path + (key,))


def bad_value(path):
    """What may replace the node at path. opt.max_iters is never huge and
    never left out (the default is 5000), and opt is never left out or
    replaced by an object, so every run stays within 15 iterations."""
    if path == ("opt",):
        return st.one_of(WRONG_TYPE.filter(lambda v: not isinstance(v, dict)), BAD_NUMBER,
                         st.just(NEST))
    if path == ("opt", "max_iters"):
        return st.one_of(WRONG_TYPE, BAD_NUMBER, st.just(NEST))
    return st.one_of(WRONG_TYPE, BAD_NUMBER, HUGE, st.just(NEST),
                     *([st.just(DELETE)] if path else []))


def corrupt(data, value):
    """A copy of value with up to two nodes replaced, deleted or nested;
    half of the copies are left whole, so that valid runs stay common."""
    value = copy.deepcopy(value)
    for _ in range(data.draw(st.sampled_from((0, 0, 1, 2)))):
        path = data.draw(st.sampled_from(list(nodes(value))))
        new = data.draw(bad_value(path))
        if not path:
            value = [value] if new is NEST else new
            continue
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if new is DELETE:
            del parent[key]
        else:
            parent[key] = [parent[key]] if new is NEST else new
    return value


def reals(low=-2.0, high=2.0):
    return st.floats(low, high, allow_nan=False)


def gates(n):
    qubit = st.integers(0, n - 1)
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(["s", "h"]), qubit),
        st.tuples(st.just("cnot"), qubit, qubit),
        st.tuples(st.just("rot"), reals(), st.text("IXYZ", min_size=n, max_size=n)),
    ).map(list), max_size=3)


MODEL = st.one_of(
    st.fixed_dictionaries({"family": st.just("xxz"), "n": st.integers(1, 6)},
                          optional={"j": reals(), "delta": reals()}),
    st.fixed_dictionaries({"family": st.just("hubbard"), "sites": st.integers(1, 3)},
                          optional={"t": reals(), "u": reals()}),
    st.integers(1, 6).flatmap(lambda n: st.fixed_dictionaries(
        {"family": st.just("random_udu"), "n": st.just(n),
         "n_diag": st.integers(1, min(6, 2**n)), "n_rot": st.integers(0, 3)},
        optional={"seed": st.integers(0, 5)})),
    st.integers(3, 6).flatmap(lambda n: st.fixed_dictionaries(
        {"family": st.just("example_hams"), "n": st.just(n), "theta": reals(0.1, 3.0),
         "c": st.just([1.0 / math.sqrt(n + 1)] * (n + 1)),
         "d": st.lists(reals(0.1, 1.0), min_size=n, max_size=n)},
        optional={"prefix": gates(n)})),
)


def params(n):
    """A params file's object on n qubits."""
    return st.integers(1, 4).flatmap(lambda d: st.fixed_dictionaries({
        "n": st.just(n),
        "ansatz": st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=d, max_size=d,
                           unique=True),
        "r": st.lists(reals(0.1, 1.0), min_size=d, max_size=d),
        "theta": st.lists(reals(), min_size=d, max_size=d)}))


def model_qubits(model) -> int:
    return 2 * model["sites"] if model["family"] == "hubbard" else model["n"]


def config(model, params_path, out_dir):
    """A valid diagonalize config of model."""
    lr = st.one_of(st.fixed_dictionaries({"a0": st.floats(1e-6, 0.1)}),
                   st.fixed_dictionaries({"kind": st.just("decay"), "a0": st.floats(1e-6, 0.1),
                                          "rate": st.floats(0.0, 1.0)}))
    # a dense warm start or the full basis on 5 or 6 qubits holds up to 4^n
    # strings, which one example cannot afford; n = 6 rejects the full basis
    small = model_qubits(model) in (1, 2, 3, 4, 6)
    source = st.one_of(
        st.just({"kind": "udu_support"}),
        st.just({"kind": "full_basis"} if small else {"kind": "udu_support"}),
        st.fixed_dictionaries({"kind": st.just("warm_start"),
                               "reference": st.one_of(st.just(model), MODEL) if small
                               else MODEL.filter(lambda m: model_qubits(m) != model_qubits(model))},
                              optional={"prune_tol": st.floats(0.0, 0.1)}),
        st.just({"kind": "file", "path": params_path}),
    )
    opt = st.fixed_dictionaries({"max_iters": st.integers(0, 15)}, optional={
        "block_size": st.integers(1, 8), "stop_tol": st.floats(0.0, 1e-3),
        "grad_tol": st.floats(0.0, 1e-3), "seed": st.integers(0, 5), "lr": lr})
    init = st.fixed_dictionaries({}, optional={"perturb": st.floats(0.0, 0.1),
                                               "seed": st.integers(0, 5)})
    return st.fixed_dictionaries(
        {"model": st.just(model), "algorithm": st.sampled_from(["gd", "rcd"]),
         "ansatz_source": source, "output": st.just({"dir": out_dir}), "opt": opt},
        optional={"init": init})


def ham_terms(n):
    """A Hamiltonian file's lines as [coefficient, word] pairs."""
    return st.lists(st.tuples(reals(0.1, 2.0), st.text("IXYZ", min_size=n, max_size=n))
                    .map(list), min_size=1, max_size=4)


def ham_text(lines) -> str:
    lines = lines if isinstance(lines, list) else [lines]
    return "\n".join(" ".join(map(str, line)) if isinstance(line, list) else str(line)
                     for line in lines)


def trace_record():
    return st.fixed_dictionaries(
        {"iter": st.integers(0, 20), "F_total": reals(), "f_value": reals(),
         "penalty": reals(), "grad_norm": reals()},
        optional={"alpha_estimate": st.one_of(st.none(), reals())})


# exit codes per subcommand (paulidiag.cli's module docstring)
CODES = {"diagonalize": {0, 1, 2, 3, 5}, "verify": {0, 1, 3, 4}, "liedim": {0, 1},
         "trace-export": {0, 1}}
# what an exit-1 error line starts with: a config key path, an option, or
# the file it rejects (every file lies under the example's directory)
KEY_PATH = re.compile(r"error: ((model|algorithm|opt|init|ansatz_source|output|config)[.:]"
                      r"|--cap|--out-dir|/)")


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def write(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run(argv, root: Path) -> str:
    """main(argv) in root with stdout and stderr captured; checks the exit
    code, stderr, the warnings issued and every JSON file main writes, and
    returns stdout."""
    inputs = set(root.rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.chdir(root), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    err = err.getvalue()
    assert code in CODES[argv[0]], (code, err)
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
    assert "Traceback" not in err and "Warning" not in err, err
    if code == 1 and "--sweep" not in argv:
        assert KEY_PATH.match(err), err
    for path in set(root.rglob("*.json*")) - inputs:
        text = path.read_text()
        for line in text.splitlines() if path.suffix == ".jsonl" else [text]:
            strict_json(line)
    return out.getvalue()


def write_run_inputs(data, root: Path):
    """A corrupted config, with a corrupted params file beside it, in root;
    returns the config."""
    model = data.draw(MODEL)
    start = write(root / "start.json", corrupt(data, data.draw(params(model_qubits(model)))))
    return corrupt(data, data.draw(config(model, start, str(root / "out"))))


@settings(max_examples=80, **FUZZ)
@given(st.data())
def test_diagonalize(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = write(root / "cfg.json", write_run_inputs(data, root))
        run(["diagonalize", "--config", cfg], root)


@settings(max_examples=6, **FUZZ)
@given(st.data())
def test_sweep(data):
    # the workers' stderr is their own: an unexpected error shows as its
    # summary line, and a config error names its key there
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"PAULI_DIAG_THREADS": "1"}):
        root = Path(tmp)
        cfgs = [write_run_inputs(data, root / f"in_{i}")
                for i in range(data.draw(st.integers(1, 2)))]
        out = run(["diagonalize", "--sweep", "--config", write(root / "cfgs.json", cfgs),
                   "--out-dir", str(root / "runs")], root)
        assert ": error: " not in out, out
        for line in out.splitlines():
            _, _, message = line.partition(": config error: ")
            assert not message or KEY_PATH.match("error: " + message), line


@settings(max_examples=40, **FUZZ)
@given(st.data())
def test_verify(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        n = data.draw(st.integers(1, 4))
        ham = ham_text(corrupt(data, data.draw(ham_terms(n))))
        kp = corrupt(data, data.draw(params(n)))
        run(["verify", write(root / "h.txt", ham), write(root / "p.json", kp)], root)


@settings(max_examples=40, **FUZZ)
@given(st.data())
def test_liedim(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model = data.draw(st.one_of(MODEL, MODEL.map(lambda m: {"model": m})))
        cap = data.draw(st.one_of(st.none(), st.integers(-1, 50)))
        argv = ["liedim", "--config", write(root / "m.json", corrupt(data, model))]
        run(argv + ([] if cap is None else ["--cap", str(cap)]), root)


@settings(max_examples=40, **FUZZ)
@given(st.data())
def test_trace_export(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        records = corrupt(data, data.draw(st.lists(trace_record(), max_size=4)))
        lines = map(json.dumps, records) if isinstance(records, list) else [json.dumps(records)]
        run(["trace-export", write(root / "trace.jsonl", "\n".join(lines))], root)
