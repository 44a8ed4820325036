"""Acceptance gate: every check in `mbonacci.verify.CHECKS` at full scale.

`mbonacci verify --full` runs the same checks.  Each becomes one test,
`test_criterion_<nn>_<name>`, that prints a PASS line; run
`pytest tests/test_acceptance.py -v -s` to see the lines with timings.
"""

from mbonacci import verify


def _criterion(check: verify.Check):
    def test():
        result = verify.run_check(check, full=True)
        assert result.passed, result.detail
        print(f"ACCEPTANCE {check.number:2d} PASS  {check.name}: {result.detail}  "
              f"[{result.seconds:.2f}s]")

    test.__name__ = test.__qualname__ = (
        f"test_criterion_{check.number:02d}_{check.name.replace(' ', '_')}")
    return test


for _check in verify.CHECKS:
    _test = _criterion(_check)
    globals()[_test.__name__] = _test
