import mpmath as mp
import numpy as np
import pytest
from scipy.special import kv

from kreinx import NonpositiveArgument, k0_bessel
from kreinx.bessel import _k0

# frozen from a 40-digit evaluation of the defining series (mpmath)
K0_AT_1 = 0.4210244382407083333
K0_AT_2 = 0.1138938727495334357


def test_frozen_reference_values():
    assert abs(k0_bessel(1.0) - K0_AT_1) <= 1e-12
    assert abs(k0_bessel(2.0) - K0_AT_2) <= 1e-12


def test_absolute_accuracy_against_high_precision_oracle():
    mp.mp.dps = 30
    xs = np.concatenate(
        [np.logspace(-3, 1.7, 70), [0.5, 1.0, 2.0, 8.5, 9.0, 9.5, 30.0]]
    )
    worst = 0.0
    for x in xs:
        ref = float(mp.besselk(0, mp.mpf(float(x))))
        worst = max(worst, abs(k0_bessel(float(x)) - ref))
    assert worst <= 1e-10


def test_relative_accuracy_away_from_switch_point():
    mp.mp.dps = 30
    for x in (1e-3, 0.1, 1.0, 2.0, 5.0, 20.0, 100.0):
        ref = float(mp.besselk(0, mp.mpf(x)))
        assert abs(k0_bessel(x) - ref) <= 1e-11 * abs(ref)


def test_complex_right_half_plane():
    mp.mp.dps = 30
    ws = np.array([1 + 2j, 0.5 + 0.1j, 12 + 5j, 3 - 4j, 0.02 + 0.5j])
    got = _k0(ws)
    assert got.dtype == np.complex128
    for w, v in zip(ws, got):
        ref = complex(mp.besselk(0, mp.mpc(complex(w))))
        assert abs(v - ref) <= 1e-9 * abs(ref)


def test_strictly_decreasing():
    xs = np.linspace(0.05, 20.0, 200)
    vals = [k0_bessel(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert k0_bessel(1.0) > k0_bessel(2.0)


def test_rejects_nonpositive():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(NonpositiveArgument):
            k0_bessel(bad)


def test_real_axis_no_worse_than_amos():
    # a real array takes Cephes k0 in real arithmetic; its worst relative
    # error against a 30-digit reference is at most that of AMOS kv
    mp.mp.dps = 30
    xs = np.geomspace(1e-6, 600.0, 300)
    refs = [mp.besselk(0, mp.mpf(float(x))) for x in xs]

    def worst(vals):
        return max(float(abs((mp.mpf(float(v)) - r) / r)) for v, r in zip(vals, refs))

    got = _k0(xs)
    assert got.dtype == np.float64
    assert worst(got) <= worst(kv(0, xs))
    assert worst(got) <= 2e-15


def test_real_axis_far_arguments_underflow_to_zero():
    xs = np.array([700.0, 746.0, 1e3, 1e9, 2e9, 1e300, np.finfo(float).max])
    got = _k0(xs)
    assert np.all(np.isfinite(got))
    assert got[0] > 0.0 and np.all(got[1:] == 0.0)
    assert k0_bessel(1e300) == 0.0
