"""Shared benchmark plumbing.

Every benchmark runs one reproduction experiment exactly once (pedantic
mode — these are minutes-long simulations, not microbenchmarks), prints
the paper-style table, and asserts the shape checks that define a
successful reproduction. Points run serially in-process through
:func:`repro.experiments.run_experiment`, with no result cache, so the
timings always measure simulation.
"""

import pytest

from repro.experiments import run_experiment


def _run(exp_id: str, quick: bool = True):
    return run_experiment(exp_id, quick)


def run_and_check(benchmark, exp_id: str, quick: bool = True):
    """Benchmark one experiment and assert its shape checks."""
    result = benchmark.pedantic(_run, args=(exp_id, quick),
                                rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(result.render())
    failures = [str(c) for c in result.checks if not c.passed]
    assert not failures, "shape checks failed:\n" + "\n".join(failures)
    return result


@pytest.fixture
def check(benchmark):
    def _run_fixture(exp_id: str, quick: bool = True):
        return run_and_check(benchmark, exp_id, quick)
    return _run_fixture
