"""The traversal map and the rows' prefix maps in long double, kept as the oracle of ``epdyn.traversal``.

The same 4th-order commutator-free Magnus product in the eigenframe, written
out plainly in ``np.clongdouble`` at a fixed step count: the drive and its
rate at both Gauss points of every step, the eigenframe (lam continued by
the nearer root, th' in closed form), each exponential as cosh and sinh of
sigma, and the step maps multiplied one after another, rescaled by their
largest entry. th_T follows from th_0 through the phase of e^{2 i th}
unwrapped sample by sample, and U = R(th_T) U_b R(th_0)^T.

Where ``np.longdouble`` is float64 (MSVC, arm64 macOS) this oracle would
carry float64's floor and prove nothing, so it refuses to run there.

``entrywise_mat`` is a float64 oracle of another kind: the loop form of
``traversal._mat``, which the package's broadcast form matches bit for bit.
"""

import numpy as np

L = np.longdouble


def require_extended_precision() -> None:
    eps = np.finfo(np.longdouble).eps
    if eps > 1e-18:
        raise RuntimeError(
            f"np.longdouble has eps {eps:.3g} here: no extended precision, and the oracle has no fallback"
        )


def _drive(params, loop, t):
    """(a, g, a', g') of the traceless H at long-double times t, from the loop's geometry."""
    pi = 4 * np.arctan(L(1))
    rate = loop.direction.sign * 2 * pi / L(loop.duration_T)
    th = L(loop.start_phase) + rate * t
    omega = L(loop.center.omega) + L(loop.semi_axis_omega) * np.cos(th)
    eps0 = L(loop.center.eps0) + L(loop.semi_axis_eps) * np.sin(th)
    omega_dot = -L(loop.semi_axis_omega) * np.sin(th) * rate
    eps0_dot = L(loop.semi_axis_eps) * np.cos(th) * rate
    d12 = np.clongdouble(complex(params.d12))
    a = (L(params.e1) - L(params.e2) + omega) / 2 + 1j * (L(params.gamma2) - L(params.gamma1)) / 2
    return a, d12 * eps0 / 2, omega_dot / 2 + 0j, d12 * eps0_dot / 2


def traversal_map(params, loop, n: int):
    """(U with largest entry 1, log of its scale) of the loop's traversal on n steps."""
    return prefix_maps(params, loop, n, 1)[-1]


def prefix_maps(params, loop, n: int, rows: int):
    """The maps R(th_j) P_j R(th_0)^T from t = 0 to each of rows + 1 uniform times, on n steps.

    Each as (U with largest entry 1, log of its scale); ``rows`` divides n,
    and the samples at the row times join the continuation of lam and th.
    """
    require_extended_precision()
    root3 = np.sqrt(L(3))
    gauss = np.array([L(1) / 2 - root3 / 6, L(1) / 2 + root3 / 6])
    weights = (L(1) / 4 + root3 / 6, L(1) / 4 - root3 / 6)
    T = L(loop.duration_T)
    h = T / n
    every = n // rows
    t, ends = [L(0)], [0]  # the samples, and the index of each row time among them
    for j in range(n):
        t += list((j + gauss) * h)
        if (j + 1) % every == 0:
            t.append(T * ((j + 1) // every) / rows)
            ends.append(len(t) - 1)
    t = np.array(t)
    a, g, a_dot, g_dot = _drive(params, loop, t)
    w2 = a * a + g * g
    lam = np.sqrt(w2)
    for k in range(1, len(t)):  # the root nearer the one before
        if abs(lam[k] - lam[k - 1]) > abs(lam[k] + lam[k - 1]):
            lam[k] = -lam[k]
    th_dot = (a * g_dot - g * a_dot) / (2 * w2)
    phase = np.angle((a + 1j * g) / lam)
    turn = 8 * np.arctan(L(1))
    for k in range(1, len(t)):  # unwrap
        phase[k] += turn * np.round((phase[k - 1] - phase[k]) / turn)
    th = [phase[k] / 2 - 0.5j * np.log(np.abs((a[k] + 1j * g[k]) / lam[k])) for k in ends]
    inner = np.setdiff1d(np.arange(1, len(t)), ends)
    lam, th_dot = lam[inner].reshape(n, 2), th_dot[inner].reshape(n, 2)

    def rotation(th):
        return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])

    def rotated(u, log_scale, th_j):
        u = rotation(th_j) @ u @ rotation(th[0]).T
        big = np.max(np.abs(u))
        return u / big, log_scale + np.log(big)

    u = np.eye(2, dtype=np.clongdouble)
    log_scale = L(0)
    out = [rotated(u, log_scale, th[0])]
    for j in range(n):
        for w0, w1 in (weights, weights[::-1]):
            p = -1j * h * (w0 * lam[j, 0] + w1 * lam[j, 1])
            q = h * (w0 * th_dot[j, 0] + w1 * th_dot[j, 1])
            sigma = np.sqrt(p * p - q * q)
            s = np.sinh(sigma) / sigma if sigma != 0 else np.clongdouble(1)
            step = np.cosh(sigma) * np.eye(2, dtype=np.clongdouble) + s * np.array([[p, q], [-q, -p]])
            u = step @ u
        big = np.max(np.abs(u))
        u /= big
        log_scale += np.log(big)
        if (j + 1) % every == 0:
            out.append(rotated(u, log_scale, th[len(out)]))
    return out


def ratio(u, column: int) -> float:
    """max(W1, W2) / min(W1, W2) of the final state from bare state ``column + 1``."""
    pops = np.abs(u[:, column]) ** 2
    return float(max(pops) / min(pops))


def entrywise_mat(x, y):
    """The 2x2 products x y one entry at a time: x[i, 0] y[0, k], then + x[i, 1] y[1, k]."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    for i in (0, 1):
        for k in (0, 1):
            np.multiply(x[i, 0], y[0, k], out=out[i, k])
            out[i, k] += x[i, 1] * y[1, k]
    return out
