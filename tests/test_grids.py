import os

import numpy as np
import pytest

from tpaopt import (
    FrequencyGrid,
    KernelMatrix,
    LevelSystem,
    auto_grid,
    default_grid,
    kernel_marginal_sum,
    make_grid,
    optimal_state_kernel,
    quadrature_weights,
    sample_kernel,
    write_kernel_csv,
)


def test_make_grid_node_counts():
    assert make_grid(0.0, 500.0, 0.25).count == 4001
    g = make_grid(0.0, 1.0, 1.0)
    assert g.count == 3
    np.testing.assert_array_equal(g.nodes, [-1.0, 0.0, 1.0])


def test_make_grid_covers_half_width():
    g = make_grid(0.0, 1.0, 0.3)
    assert g.min <= -1.0 and g.max >= 1.0
    assert g.count % 2 == 1


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 1.0, 1)


def test_default_grid_matches_reference_convention():
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    g = default_grid(sys)
    assert g.min == pytest.approx(-17.5)
    assert g.max == pytest.approx(22.5)
    assert g.count == 201
    assert g.step == pytest.approx(0.2)


def test_auto_grid_covers_both_lines_at_large_detuning():
    sys = LevelSystem(delta_detuning=100.0, delta_deviation=-1.9)
    g = auto_grid(sys)
    assert g.min < sys.omega_e - 50 and g.max > sys.omega_f - sys.omega_e + 50
    # and coincides with the reference grid where that one suffices
    small = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    assert auto_grid(small) == default_grid(small)


def test_trapezoid_weights():
    g = make_grid(0.0, 1.0, 1.0)
    np.testing.assert_array_equal(quadrature_weights(g), [0.5, 1.0, 0.5])
    g = make_grid(2.0, 7.0, 0.1)
    w = quadrature_weights(g)
    assert w.sum() == pytest.approx(g.max - g.min, rel=1e-14)


def test_constant_function_integrates_to_span():
    g = make_grid(-1.0, 4.0, 0.25)
    w = quadrature_weights(g)
    assert np.sum(w * np.ones(g.count)) == pytest.approx(g.max - g.min, rel=1e-14)


def test_lorentzian_quadrature_against_arctan():
    # oracle: closed-form antiderivative of the Lorentzian is arctan
    g = make_grid(0.0, 200.0, 0.2)
    x = g.nodes
    w = quadrature_weights(g)
    quad = np.sum(w / (np.pi * (x**2 + 1.0)))
    arctan_box = (np.arctan(g.max) - np.arctan(g.min)) / np.pi
    assert quad == pytest.approx(arctan_box, abs=1e-9)
    assert abs(quad - 1.0) < 1e-2


def test_nodes_bit_exact_from_min_step_index():
    g = make_grid(-3.7, 11.0, 0.3)
    nodes = g.nodes
    for k in (0, 1, g.count // 2, g.count - 1):
        assert nodes[k] == g.min + k * g.step


def test_sample_symmetric_kernel_equals_transpose():
    g = make_grid(0.0, 5.0, 0.1)
    k = sample_kernel(lambda a, b: 1.0 / (a + b + 2j), g, embed_weights=True)
    assert np.all(k.entries == k.entries.T)


def test_separable_kernel_is_rank_one():
    g = make_grid(0.0, 10.0, 0.1)
    k = sample_kernel(lambda a, b: np.exp(-a**2) * 1.0 / (b**2 + 1.0) + 0j, g)
    s = np.linalg.svd(k.entries, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]


def test_weight_embedding_is_an_isometry():
    g1 = make_grid(0.0, 8.0, 0.2)
    g2 = make_grid(1.0, 6.0, 0.15)

    def f(a, b):
        return 1.0 / ((a + 1j) * (b - 1.0 + 0.5j))

    def h(a, b):
        return np.exp(-0.1 * (a**2 + b**2)) * (1.0 + 0.3j)

    kf = sample_kernel(f, g1, g2)
    kh = sample_kernel(h, g1, g2)
    w1 = quadrature_weights(g1)
    w2 = quadrature_weights(g2)
    x1, x2 = g1.nodes[:, None], g2.nodes[None, :]
    quad_ip = np.sum(w1[:, None] * w2[None, :] * np.conj(f(x1, x2)) * h(x1, x2))
    frob_ip = np.sum(np.conj(kf.entries) * kh.entries)
    assert abs(quad_ip - frob_ip) < 1e-12 * abs(quad_ip)


def test_refinement_stays_within_quadrature_error_bound():
    # halving the step moves the captured norm by far less than O(step^2)
    sys = LevelSystem(delta_detuning=1.0, delta_deviation=-0.5)
    norms = {}
    for step in (0.4, 0.2, 0.1):
        g = make_grid(sys.omega_f / 2.0, 40.0, step)
        norms[step] = optimal_state_kernel(sys, g).frobenius_norm2()
    for step in (0.4, 0.2):
        assert abs(norms[step / 2] - norms[step]) <= step**2
        assert abs(norms[step / 2] - norms[step]) < 1e-4


def test_norm_capture_on_default_grid():
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    k = optimal_state_kernel(sys, default_grid(sys))
    assert k.frobenius_norm2() >= 0.99


def test_kernel_shape_validation():
    g = make_grid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        KernelMatrix(g, g, np.zeros((2, 2), dtype=complex), True)


def test_marginal_sum_requires_matching_steps():
    k = sample_kernel(lambda a, b: a + b + 0j, make_grid(0, 1, 0.5), make_grid(0, 1, 0.25))
    with pytest.raises(ValueError):
        kernel_marginal_sum(k)


def test_kernel_csv_dump(tmp_path):
    g = make_grid(0.0, 1.0, 0.5)
    k = sample_kernel(lambda a, b: a + 1j * b, g)
    path = tmp_path / "kernel.csv"
    write_kernel_csv(k, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3 + g.count  # three header lines, one line per row
    first = [float(v) for v in lines[3].split(",")]
    assert len(first) == 2 * g.count  # re,im pairs


@pytest.mark.parametrize("embed", [True, False])
def test_marginal_sum_matches_row_by_row_sum_bitwise(embed):
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=-1.2)
    g1, g2 = make_grid(1.5, 12.0, 0.25), make_grid(2.0, 8.0, 0.25)
    k = optimal_state_kernel(sys, g1, g2, embed_weights=embed)
    p = np.abs(k.entries) ** 2
    if not embed:
        p = p * np.outer(quadrature_weights(g1), quadrature_weights(g2))
    acc = np.zeros(g1.count + g2.count - 1)
    for i, row in enumerate(p):
        acc[i : i + g2.count] += row
    omega_plus, density = kernel_marginal_sum(k)
    np.testing.assert_array_equal(density, acc / g1.step)
    assert omega_plus.size == acc.size


def test_kernel_csv_rows_match_per_element_formatting(tmp_path):
    # reference: the per-element f-string loop the row formatting replaced
    g1, g2 = make_grid(0.0, 2.0, 0.5), make_grid(1.0, 1.5, 0.5)
    n = 2 * g1.count * g2.count
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 1.0, -3.0, 12345678.0, 1e-300, -5e-324, 1e20, 123456789012.0, 0.1]
    scales = 10.0 ** rng.integers(-20, 21, n - len(special))
    values = np.concatenate([special, rng.standard_normal(n - len(special)) * scales])
    entries = (values[0::2] + 1j * values[1::2]).reshape(g1.count, g2.count)
    k = KernelMatrix(g1, g2, entries, True)
    path = tmp_path / "kernel.csv"
    write_kernel_csv(k, path)
    rows = path.read_text().splitlines()[3:]
    expected = [",".join(f"{z.real:.9g},{z.imag:.9g}" for z in row) for row in k.entries]
    assert rows == expected
