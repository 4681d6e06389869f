"""The per-test deadline in conftest turns a hang into a failure."""

import signal

import conftest


def test_deadline_fails_an_endless_loop_under_its_name(pytester, monkeypatch):
    """A test that never returns fails, named, once the deadline passes, and
    the run goes on to the next test; this test's own deadline stays armed."""
    monkeypatch.setattr(conftest, "TEST_DEADLINE_S", 0.2)
    pytester.makepyfile(
        test_spin="""
        def test_spins():
            while True:
                pass

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider", plugins=[conftest])
    result.assert_outcomes(passed=1, failed=1)
    result.stdout.fnmatch_lines(
        [
            "*DeadlineExceeded: test_spin.py::test_spins ran past 0.2 s",
            "FAILED test_spin.py::test_spins - *",
        ]
    )
    assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
