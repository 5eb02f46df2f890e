import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydcav import kernels, transmission
from rydcav.configio import load_scenario
from rydcav.kernels import response_filter


def test_constant_z_transient_matches_closed_form():
    # For constant z the recursion b_k = d b_{k-1} + (d - 1)/z, d = exp(z dt),
    # has the solution b_k = -1/z + d**k (b0 + 1/z); start off the fixed point.
    kappa = 2 * np.pi * 236e3
    z = -kappa / 2 - 1j * 2 * np.pi * 10e3
    dt = 5e-8
    b0 = 3e-6 - 4e-6j
    n = 5000
    out = response_filter(np.full(n, z), dt, b0)
    d = np.exp(z * dt)
    k = np.arange(n)
    expected = -1.0 / z + d ** k * (b0 + 1.0 / z)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_constant_z_reaches_fixed_point():
    kappa = 2 * np.pi * 236e3
    z = np.full(4000, -kappa / 2 + 0j)
    out = response_filter(z, 5e-8, 0.0 + 0j)
    # -1/z is the fixed point of the recursion
    assert abs(out[-1] - (-1.0 / z[0])) < 1e-9 * abs(1.0 / z[0])


def test_seeded_at_fixed_point_stays_there():
    kappa = 2 * np.pi * 236e3
    z = np.full(1000, -kappa / 2 - 1j * 2 * np.pi * 10e3)
    out = response_filter(z, 5e-8, complex(-1.0 / z[0]))
    np.testing.assert_allclose(out, -1.0 / z[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# the per-sample loop as reference oracle for the blocked scan

KAPPA = 2 * np.pi * 236e3
DT_MAX = (2.0 / KAPPA) / 20.0  # coarsest grid transmission_response accepts
B = kernels.BLOCK


def loop_filter(z, dt, b0, out=None):
    """The recurrence b_k = d_k b_{k-1} + (d_k - 1)/zm_k, one sample at a time,
    into ``out`` when given."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    dt = float(dt)
    n = z.shape[0]
    out = np.empty(n, dtype=np.complex128) if out is None else out
    b = complex(b0)
    out[0] = b
    for k in range(1, n):
        zm = 0.5 * (z[k] + z[k - 1])
        d = np.exp(zm * dt)
        b = b * d + (d - 1.0) / zm
        out[k] = b
    return out


def random_z(seed, n, chi_max, noisy, delta_m=0.0):
    """z = i delta_m - kappa/2 - i chi for a random smooth or noisy chi with
    max |chi| = chi_max."""
    rng = np.random.default_rng(seed)
    if noisy:
        chi = rng.standard_normal(n)
    else:
        t = np.linspace(0.0, 1.0, n)
        chi = sum(rng.standard_normal()
                  * np.sin(2 * np.pi * ((m + rng.random()) * t + rng.random()))
                  for m in range(4))
    chi = chi_max * chi / np.max(np.abs(chi))
    return 1j * delta_m - KAPPA / 2 - 1j * chi


# the edges of blocks of the default BLOCK and of 1024 steps, its former value
@pytest.mark.parametrize("n", sorted({1, 2, 1024, 1025, 2049, B, B + 1, 2 * B + 1}))
@pytest.mark.parametrize("noisy", [False, True], ids=["smooth", "noisy"])
@pytest.mark.parametrize("chi_max", [1e4, 1e7])
def test_matches_loop_oracle_at_block_edges(n, noisy, chi_max):
    z = random_z(n, n, chi_max, noisy, delta_m=0.3 * KAPPA)
    b0 = -1.0 / z[0]
    np.testing.assert_allclose(response_filter(z, DT_MAX, b0), loop_filter(z, DT_MAX, b0),
                               rtol=1e-11, atol=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 3 * B + 2),
       log_chi=st.floats(3.0, 7.0),
       noisy=st.booleans(),
       dt_frac=st.floats(0.05, 1.0),
       detuning=st.floats(-2.0, 2.0))
def test_matches_loop_oracle(seed, n, log_chi, noisy, dt_frac, detuning):
    z = random_z(seed, n, 10**log_chi, noisy, delta_m=detuning * KAPPA)
    dt = dt_frac * DT_MAX
    b0 = -1.0 / z[0]
    np.testing.assert_allclose(response_filter(z, dt, b0), loop_filter(z, dt, b0),
                               rtol=1e-11, atol=0)


def test_steps_beyond_exp_range_take_shorter_blocks():
    # kappa/2 dt = 3 per step: a full block would span exp(3 * BLOCK), far
    # past the float range, so the scan must shorten its blocks.
    z = random_z(3, 3000, 1e7, True)
    dt = 6.0 / KAPPA
    b0 = 0.5 / KAPPA + 0j
    out = response_filter(z, dt, b0)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, loop_filter(z, dt, b0), rtol=1e-11, atol=0)


@pytest.mark.parametrize("re_a, n", [(-3.0, 3000), (0.3, 2100)], ids=["decaying", "growing"])
def test_running_product_in_range_at_block_limit(re_a, n):
    # |Re a| per step sets the block to EXP_SPAN / |Re a| steps, over which
    # the running product spans exp(+-EXP_SPAN); the growing z (not a passive
    # cavity) leaves an output of about exp(0.3 * 2100), still finite
    chi = random_z(5, n, 1e7, True).imag
    z = np.sign(re_a) * KAPPA / 2 + 1j * chi
    dt = 2.0 * abs(re_a) / KAPPA
    b0 = 0.5 / KAPPA + 0j
    with np.errstate(all="raise"):
        out = response_filter(z, dt, b0)
        ref = loop_filter(z, dt, b0)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, ref, rtol=1e-11, atol=0)


@pytest.mark.parametrize("detuning", [-0.5, 0.0, 0.5])
def test_matches_loop_oracle_on_finest_benchmark_grid(config_dir, monkeypatch, detuning):
    # the finest grid of perfbench long_trace: dt = (2/kappa)/27/256 over the
    # packaged fly-through, 157 517 samples, transit decay on
    fly = load_scenario(config_dir / "flythrough.json")
    calls = []

    def recorded(z, dt, b0, out=None):
        calls.append((z, dt, b0))
        return response_filter(z, dt, b0, out=out)

    monkeypatch.setattr(transmission, "response_filter", recorded)
    trace, _ = transmission.simulate_flythrough(
        fly.ensemble, fly.cavity, fly.transitions, detuning * fly.kappa, fly.kappa,
        dt=(2.0 / fly.kappa) / 27.0 / 256, transit_decay=True)
    assert trace.times.size == 157517
    ((z, dt, b0),) = calls
    np.testing.assert_allclose(response_filter(z, dt, b0), loop_filter(z, dt, b0),
                               rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# properties of the recurrence


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       log_chi=st.floats(3.0, 7.0),
       noisy=st.booleans(),
       dt_frac=st.floats(0.05, 1.0),
       detuning=st.floats(-2.0, 2.0),
       b0_scale=st.floats(0.0, 1.0),
       b0_phase=st.floats(0.0, 2 * np.pi))
def test_passive(seed, log_chi, noisy, dt_frac, detuning, b0_scale, b0_phase):
    # Re z = -kappa/2, so the integral can never exceed the resonant steady
    # state 2/kappa: |b_k| <= |d| |b_{k-1}| + (1 - |d|) 2/kappa.
    z = random_z(seed, 2 * B + 5, 10**log_chi, noisy, delta_m=detuning * KAPPA)
    b0 = b0_scale * (2.0 / KAPPA) * np.exp(1j * b0_phase)
    out = response_filter(z, dt_frac * DT_MAX, b0)
    assert np.max(np.abs(out)) <= (2.0 / KAPPA) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(chi=st.floats(-1e7, 1e7),
       dt_frac=st.floats(0.1, 1.0),
       b0_scale=st.floats(0.0, 1.0),
       b0_phase=st.floats(0.0, 2 * np.pi))
def test_constant_z_tends_to_steady_state(chi, dt_frac, b0_scale, b0_phase):
    z = -KAPPA / 2 - 1j * chi
    dt = dt_frac * DT_MAX
    n = int(np.ceil(40.0 / (KAPPA / 2 * dt))) + 1  # 40 decay lengths
    b0 = b0_scale * (2.0 / KAPPA) * np.exp(1j * b0_phase)
    out = response_filter(np.full(n, z), dt, b0)
    assert abs(out[-1] - (-1.0 / z)) <= 1e-11 * abs(1.0 / z)


@settings(max_examples=25, deadline=None)
@given(log_chi=st.floats(4.0, 6.5),
       sign=st.sampled_from([-1.0, 1.0]),
       width=st.floats(1.0, 10.0),
       detuning=st.floats(-1.0, 1.0),
       frac=st.floats(20.0, 40.0))
def test_second_order_in_dt(log_chi, sign, width, detuning, frac):
    # A Gaussian chi pulse on grids halved four times: every grid holds the
    # samples of the coarser one, so successive solutions compare there.
    w = width * 2.0 / KAPPA
    n0 = int(round(10 * w / ((2.0 / KAPPA) / frac)))
    dt0 = 10 * w / n0
    outs = []
    for k in range(5):
        t = np.arange(n0 * 2**k + 1) * (dt0 / 2**k)
        chi = sign * 10**log_chi * np.exp(-((t - 5 * w) / w) ** 2)
        z = 1j * detuning * KAPPA - KAPPA / 2 - 1j * chi
        outs.append(response_filter(z, dt0 / 2**k, -1.0 / z[0]))
    diffs = [np.max(np.abs(coarse - fine[::2])) for coarse, fine in zip(outs, outs[1:])]
    orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.1), orders


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 5000),
       log_chi=st.floats(3.0, 7.0),
       noisy=st.booleans())
def test_block_length_invariance(seed, n, log_chi, noisy):
    z = random_z(seed, n, 10**log_chi, noisy, delta_m=0.5 * KAPPA)
    b0 = -1.0 / z[0]
    ref = response_filter(z, DT_MAX, b0)
    for block in (1, 7, 1024):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK", block)
            np.testing.assert_allclose(response_filter(z, DT_MAX, b0), ref,
                                       rtol=1e-11, atol=0, err_msg=f"BLOCK = {block}")


# ---------------------------------------------------------------------------
# the step factors from one tan


def expm1_sin_cos(x, h):
    """expm1(x + 2ih) = expm1(x) - 2 e^x sin^2 h + 2i e^x sin h cos h, the
    half-angle sine and cosine form the tan form replaced."""
    two_exp_sin = 2.0 * np.exp(x) * np.sin(h)
    return complex(np.expm1(x) - two_exp_sin * np.sin(h), two_exp_sin * np.cos(h))


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-40.0, 0.5), h=st.floats(-1e3, 1e3))
@example(x=-0.05, h=0.0).via("h = 0")
@example(x=-0.05, h=np.pi / 2).via("h just below pi/2")
@example(x=-0.05, h=-np.pi / 2).via("h just above -pi/2")
@example(x=-0.05, h=2.0).via("|Im a| > pi")
@example(x=0.3, h=0.7).via("Re a = +0.3")
@example(x=-3.0, h=0.7).via("Re a = -3")
def test_tan_steps_match_half_angle_sine_cosine(x, h):
    want = expm1_sin_cos(x, h)
    got = kernels._expm1_tan(np.array([x]), np.array([h]), np.empty(1, complex))
    assert abs(got[0] - want) <= 1e-14 * abs(want)
    # the same bits with h given as out.imag, as the closed-form tail does
    out = np.empty(1, complex)
    out.imag = h
    kernels._expm1_tan(np.array([x]), out.imag, out)
    assert out.tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# bad inputs are named


@pytest.mark.parametrize("z, dt, b0, message", [
    (np.empty(0, complex), DT_MAX, 0j, r"^z must be 1-d with at least one sample"),
    (np.full((2, 3), -KAPPA / 2 + 0j), DT_MAX, 0j, r"^z must be 1-d with at least one sample"),
    (np.array([-KAPPA / 2, np.nan, -KAPPA / 2]), DT_MAX, 0j, r"^z must be finite"),
    (np.array([-KAPPA / 2, -KAPPA / 2 + 1j * np.inf]), DT_MAX, 0j, r"^z must be finite"),
    (np.full(3, -KAPPA / 2 + 0j), DT_MAX, complex(np.nan, 0.0), r"^b0 must be finite"),
    (np.full(3, -KAPPA / 2 + 0j), np.inf, 0j, r"^dt must be finite and positive"),
    (np.full(3, -KAPPA / 2 + 0j), 0.0, 0j, r"^dt must be finite and positive"),
], ids=["empty z", "2-d z", "nan in z", "inf in z", "nan b0", "inf dt", "zero dt"])
def test_bad_input_named(z, dt, b0, message):
    with pytest.raises(ValueError, match=message):
        response_filter(z, dt, b0)


@pytest.mark.parametrize("make_out", [
    lambda z: np.empty(3, np.complex64),
    lambda z: np.empty(2, complex),
    lambda z: np.empty((3, 1), complex),
    lambda z: np.empty(3, float),
    lambda z: [0j, 0j, 0j],
    lambda z: np.broadcast_to(np.zeros(1, complex), (3,)),
    lambda z: z,
    lambda z: z[::-1],
    lambda z: z.base[2:5],
], ids=["complex64", "short", "2-d", "float", "list", "read-only", "z", "z reversed",
        "overlaps z"])
def test_bad_out_named(make_out):
    z = np.full(6, -KAPPA / 2 + 0j)[:3]
    with pytest.raises(ValueError, match="^out must be a writeable complex128 1-d array of 3 "):
        response_filter(z, DT_MAX, 0j, out=make_out(z))


@pytest.mark.parametrize("n", [1, 2, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("stride", [1, 3])
def test_out_is_written_and_returned_with_the_same_bits(n, stride):
    # the scan writes the integral into the caller's array, also a strided
    # slice of a larger buffer, bit for bit as into its own
    z = random_z(11, n, 1e6, False, delta_m=0.3 * KAPPA)
    want = response_filter(z, DT_MAX, 0.5 / KAPPA + 0j)
    buf = np.full(stride * n + 2, np.nan + 0j)
    out = buf[1:1 + stride * n:stride]
    got = response_filter(z, DT_MAX, 0.5 / KAPPA + 0j, out=out)
    assert got is out
    assert got.tobytes() == want.tobytes()
    untouched = np.ones(buf.size, bool)
    untouched[1:1 + stride * n:stride] = False
    assert np.all(np.isnan(buf[untouched]))


def test_finite_z_whose_sum_overflows_accepted():
    # the finiteness check sums z; a sum past the float range is checked again
    z = -KAPPA / 2 + 6e307j * np.ones(4)
    with np.errstate(over="ignore"):
        assert not np.isfinite(z.sum())
    assert np.all(np.isfinite(response_filter(z, DT_MAX, 0j)))
