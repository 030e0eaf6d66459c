"""The names the benchmark harness binds in the package stay in place.

perfbench (``perfbench/run.py`` and its tracer) drives the package through
``decolab.cli`` and wraps functions and methods by name, so renaming or
deleting one of them breaks the benchmark while every other test still
passes.  These tests run the harness's set-up child statements, one traced
``verify --suite quick`` pass, one traced ``ohmic-sweep`` pass and one
untraced ``oracle-full`` pass in this process.  The ``quick`` and
``encoding`` suites, which the benchmark does not run, are held to their
references in ``tests/reference``, and ``inequality --seed 0`` to the
harness's own reference, by the harness's own output check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS_REFERENCE = Path(__file__).resolve().parent / "reference"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("name", ["oracle-full", "inequality", "ohmic-sweep"])
def test_setup_child_runs_in_process(perfbench, name, monkeypatch, capsys):
    argv = perfbench.workload(name, 0).argv
    monkeypatch.setattr(sys, "argv", ["-c", str(perfbench.SRC), *argv])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the child prepends the source tree
    exec(perfbench.SETUP_CHILD, {"__name__": "__main__"})
    assert float(capsys.readouterr().out.split()[-1]) >= 0.0


def test_traced_quick_suite_records_benchmark_spans(perfbench, capsys):
    import tracer

    from decolab import cli

    rec = tracer.Recorder()
    inst = tracer.Instrumentation(rec).install()
    try:
        assert cli.main(["verify", "--suite", "quick"]) == 0
    finally:
        inst.uninstall()
    names = {span[1] for span in rec.spans}
    assert {"oracle.eigh", "oracle.advance", "oracle.taylor_coefficients", "oracle.verify_expansion",
            "fidelity.closed_form_c2", "model.rate_from_correlation", "suites.task"} <= names
    assert capsys.readouterr().out.startswith("scenario,c2_analytic,")


def test_traced_ohmic_sweep_matches_reference(perfbench):
    import tracer

    wl = perfbench.workload("ohmic-sweep", 0)
    rec = tracer.Recorder()
    inst = tracer.Instrumentation(rec).install()
    try:
        p = perfbench.run_pass(wl.argv)  # cli.main under captured stdout and stderr
    finally:
        inst.uninstall()
    checker = perfbench.Checker(wl)
    checker.check(p, "traced pass")
    assert p.exit_code == 0 and p.stderr == ""
    assert checker.correct, checker.problems
    assert checker.failed == 0
    names = [span[1] for span in rec.spans]
    assert {"spectral.ohmic_correlation_quad", "cli.sweep_row"} <= set(names)
    # the d points reuse the loaded config; quadrature spans show that the bath
    # table calls the form functions through names the tracer rebinds
    assert names.count("config.parse_config") == 1


def test_oracle_full_pass_matches_reference(perfbench):
    wl = perfbench.workload("oracle-full", 0)
    p = perfbench.run_pass(wl.argv)  # verify --suite full, as a timed pass runs it
    checker = perfbench.Checker(wl)
    checker.check(p, "oracle-full pass")
    assert p.exit_code == 0 and p.stderr == ""
    assert checker.correct, checker.problems
    assert checker.failed == 0


@pytest.mark.parametrize("argv, reference, close", [
    (("verify", "--suite", "quick"), TESTS_REFERENCE / "quick.csv", ("c2_analytic",)),
    (("verify", "--suite", "encoding"), TESTS_REFERENCE / "encoding.csv", ("c2_analytic", "c2_fitted")),
    (("verify", "--suite", "inequality", "--seed", "0"), BENCH / "reference" / "inequality-seed0.csv",
     ("c2_analytic", "c2_fitted")),
], ids=["quick", "encoding", "inequality"])
def test_suite_matches_its_reference(perfbench, argv, reference, close):
    # names, order and pass exactly, closed-form columns to 1e-9 of the column's scale;
    # the fitted columns of encoding and inequality are closed forms too
    suite = argv[2]
    wl = perfbench.Workload(suite, argv, reference, "scenario", ("pass",), close)
    p = perfbench.run_pass(wl.argv)
    checker = perfbench.Checker(wl)
    checker.check(p, f"{suite} pass")
    assert p.exit_code == 0 and p.stderr == ""
    assert checker.correct, checker.problems
    assert checker.failed == 0
