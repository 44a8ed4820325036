"""Acceptance gate: every check in `mbonacci.verify.CHECKS` at full scale.

`mbonacci verify --full` runs the same checks.  Each becomes one test,
`test_criterion_<nn>_<name>`, that prints a PASS line; run
`pytest tests/test_acceptance.py -v -s` to see the lines with timings.
"""

import dataclasses

import pytest

from mbonacci import numeration, rotation, verify


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


# Criterion 1 checks the codes of `numeration.digit_codes` that the bulk
# paths count with; a planted wrong code must fail it, at both scales.

def _wrong_code_bit(codes):
    codes[5] ^= 1 << 3
    return "roundtrip broken"


def _bit_past_the_basis(codes):
    codes[7] |= 1 << 62
    return "roundtrip broken"


def _inadmissible_code(codes):
    # 3 = 1 + 2 keeps the value, but for m = 2 two adjacent ones are not greedy
    codes[3] = 0b11
    return "admissibility violated"


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("plant", [_wrong_code_bit, _bit_past_the_basis, _inadmissible_code])
def test_criterion_01_fails_on_a_wrong_code_bit(monkeypatch, plant, full):
    digit_codes = numeration.digit_codes
    messages = []

    def mutant(sys, count):
        codes = digit_codes(sys, count)
        messages.append(plant(codes))
        return codes

    monkeypatch.setattr(numeration, "digit_codes", mutant)
    check = next(c for c in verify.CHECKS if c.number == 1)
    result = verify.run_check(check, full=full)
    assert not result.passed
    assert result.detail == f"{messages[0]} for m=2"


# Criterion 13 compares the scalar address `rotation.subtile_of` with the
# bulk counts of `rotation.membership_counts`; a wrong letter on either route
# must fail it, at both scales.

def _wrong_scalar_letter(monkeypatch):
    subtile_of = rotation.subtile_of

    def mutant(sys, n, k):
        addr = subtile_of(sys, n, k)
        return dataclasses.replace(addr, letter=addr.letter % sys.m + 1) if n == 1 else addr

    monkeypatch.setattr(rotation, "subtile_of", mutant)


def _wrong_bulk_letter(monkeypatch):
    membership_counts = rotation.membership_counts

    def mutant(sys, k, N):
        keys, letters, counts = membership_counts(sys, k, N)
        letters[1] = letters[1] % sys.m + 1
        return keys, letters, counts

    monkeypatch.setattr(rotation, "membership_counts", mutant)


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("mutate", [_wrong_scalar_letter, _wrong_bulk_letter])
def test_criterion_13_fails_on_a_wrong_letter(monkeypatch, mutate, full):
    mutate(monkeypatch)
    check = next(c for c in verify.CHECKS if c.number == 13)
    result = verify.run_check(check, full=full)
    assert not result.passed
    assert "subtile_of and membership_counts differ" in result.detail
