"""The compiled wave kernels: one per distinct source, written per species
count and exponent class, O(n) source."""

import ast
import math
import random
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from nbarrier import ReactionSpec, SystemSpec, integrate, kernels, residual
from nbarrier.exact import COS_FORM, TANH_FORM, Profile
from nbarrier.kernels import UNROLL_LIMIT, _residual_source, _rk4_source, call_form

import capture_bits
from conftest import bench_range_member

# (writer, classes of m - 1 and m - 2, class of every l_i): the variants
# with a pow call for every exponent, then folded ones; m - 1 of class "0"
# is m = 1.
WRITERS = [(_residual_source, ("frac", "frac"), "frac"),
           (_residual_source, ("0", "int"), "frac"),
           (_rk4_source, ("0", "int"), "frac"),
           (_rk4_source, ("frac", "frac"), "frac"),
           (_residual_source, ("1", "0"), "1"),
           (_residual_source, ("int", "1"), "int"),
           (_residual_source, ("0", "int"), "1"),
           (_rk4_source, ("1", "0"), "1"),
           (_rk4_source, ("int", "1"), "int"),
           (_rk4_source, ("0", "int"), "1")]
WRITER_IDS = ["residual", "residual-m1", "rk4-m1", "rk4-degenerate",
              "residual-m2-l1", "residual-m3-l2", "residual-m1-l1",
              "rk4-m2-l1", "rk4-m3-l2", "rk4-m1-l1"]


def written(writer, n):
    """The source writer writes for n species in its variant; the residual
    writer's is the kernel of a profile given as a bare callable."""
    write, m_classes, l_class = writer
    return write(shape(write, n), m_classes + (l_class,) * n)


def shape(write, n):
    """What write takes first: the closed form of a bare callable for the
    residual writer, n for the RK4 writer."""
    return call_form(n) if write is _residual_source else n


def drawn_system(rng, n, m):
    return SystemSpec(
        n=n, m=m, d=tuple(rng.uniform(0.3, 3.0) for _ in range(n)),
        l=tuple(rng.choice((1.0, 1.5, 2.0)) for _ in range(n)),
        theta=rng.uniform(-1.0, 1.0),
        reaction=ReactionSpec(
            sigma=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
            C=tuple(tuple(rng.uniform(0.1, 2.0) for _ in range(n)) for _ in range(n))))


# The class of m - 1 and m - 2 per m, and of l_i per l.
M_CLASSES = {1.0: ("0", "int"), 1.5: ("frac", "frac"), 2.0: ("1", "0"), 3.0: ("int", "1")}
L_CLASSES = {(1.0, 1.0, 1.0, 1.0): ("1", "1", "1", "1"),
             (1.5, 2.0, 1.0, 2.0): ("frac", "int", "1", "int")}


def test_specs_with_one_species_count_share_one_kernel_per_variant(monkeypatch):
    monkeypatch.setattr(kernels, "_KERNELS", {})
    rng = random.Random(5)
    for k in range(50):
        m = tuple(M_CLASSES)[k % 4]
        spec = replace(drawn_system(rng, 4, m), l=tuple(L_CLASSES)[k // 4 % 2])
        levels = tuple(rng.uniform(1.0, 2.0) for _ in range(4))
        profile = Profile.of(4, m, lambda x, levels=levels: tuple(
            (a + 0.1 * math.sin(x), 0.1 * math.cos(x), -0.1 * math.sin(x)) for a in levels))
        residual(spec, profile, [0.0, 0.5, 1.0])
        integrate(spec, levels, (0.0,) * 4, (0.0, 0.05), 0.01)
    assert set(kernels._KERNELS) == {
        write(shape(write, 4), m_classes + l_classes) for write, m_classes, l_classes
        in product((_residual_source, _rk4_source), M_CLASSES.values(), L_CLASSES.values())}


def test_specs_whose_classes_write_one_source_share_one_compile(monkeypatch):
    # RK4 reads no m - 2 and writes l_i = 2 and 1.5 alike, so these four
    # specs write two sources.
    monkeypatch.setattr(kernels, "_KERNELS", {})
    for m, l in ((3.0, (1.0, 1.0)), (4.0, (1.0, 1.0)), (3.0, (2.0, 2.0)), (3.0, (1.5, 1.5))):
        spec = replace(drawn_system(random.Random(1), 2, m), l=l)
        integrate(spec, (0.5, 0.5), (0.0, 0.0), (0.0, 0.05), 0.01)
    assert len(set(kernels._KERNELS.values())) == 2


@pytest.mark.parametrize("writer", WRITERS, ids=WRITER_IDS)
def test_kernel_source_holds_no_coefficient(writer):
    # The only numbers are RK4's stage weights and the residual's initial 0.0.
    numbers = set(re.findall(r"(?<![\w.])\d+\.\d*", written(writer, 3)))
    assert numbers <= {"0.0", "0.5", "1.0", "2.0", "6.0"}


@pytest.mark.parametrize("writer", WRITERS, ids=WRITER_IDS)
def test_kernel_source_grows_linearly_beyond_the_unroll_limit(writer):
    for n in (UNROLL_LIMIT + 1, 20, 100, 400):
        assert len(written(writer, 2 * n)) <= 2.2 * len(written(writer, n)), n


def ast_depth(node):
    return 1 + max(map(ast_depth, ast.iter_child_nodes(node)), default=0)


@pytest.mark.parametrize("writer", WRITERS, ids=WRITER_IDS)
def test_kernel_source_nests_no_deeper_as_n_grows(writer):
    # A + chain of n products nests n deep, and the compiler's recursion
    # limit rejects one of about 3000; a kernel holds no expression whose
    # depth grows with n, so it compiles at any n.
    tree = ast.parse(written(writer, 200))
    assert ast_depth(tree) <= max(ast_depth(ast.parse(written(writer, k)))
                                  for k in (2, UNROLL_LIMIT + 1))
    compile(tree, "<kernel>", "exec")


@pytest.mark.parametrize("writer", WRITERS, ids=WRITER_IDS)
def test_rows_of_up_to_unroll_limit_products_are_a_plus_chain(writer):
    # Every row of 1 to UNROLL_LIMIT products is a + chain from its first
    # product, which rounds alike on every interpreter; longer rows are
    # sum(map(mul, ...)).
    for n in range(1, UNROLL_LIMIT + 1):
        source = written(writer, n)
        rows = dict(re.findall(r"\bt(\d+) = (.*)", source))
        assert "sum(" not in source and len(rows) == n, n
        for i, row in rows.items():
            chain = " + ".join(f"c{i}_{j} * u{j}" for j in range(n))
            assert row.endswith(f" - ({chain}))"), n
    for n in (UNROLL_LIMIT + 1, UNROLL_LIMIT + 2):
        rows = re.findall(r"\bt(\d+) = (.*)", written(writer, n))
        assert {int(i) for i, _ in rows} == set(range(n)), n
        assert all(row.endswith(f" - sum(map(mul, C{i}, U)))") for i, row in rows), n


@pytest.mark.parametrize("writer", WRITERS, ids=WRITER_IDS)
def test_only_a_fractional_exponent_guards_the_residual_against_a_complex(writer):
    # A negative base to an integer power is real, so those variants pay nothing.
    write, m_classes, l_class = writer
    fractional = "frac" in (*m_classes, l_class)
    assert ("complex" in written(writer, 3)) == (write is _residual_source and fractional)


def test_family_members_share_one_residual_kernel_per_class_pattern(monkeypatch):
    # The members' constants are an argument, not source, so 50 tanh and 50
    # cos members at m = 2 and m = 3 compile four residual kernels in all,
    # and taking residuals compiles no family's derivs.
    monkeypatch.setattr(kernels, "_KERNELS", {})
    rng = random.Random(9)
    for k in range(100):
        sol, _ = bench_range_member(rng, "cos" if k % 2 else "tanh")
        spec = replace(sol.system(), m=(2.0, 3.0)[k // 2 % 2])
        residual(spec, sol.profile(), [0.0, 0.5, 1.0])
    assert set(kernels._KERNELS) == {
        _residual_source(form, m_classes + l_classes)
        for form, l_classes in ((TANH_FORM, ("int", "int")), (COS_FORM, ("1", "1", "1")))
        for m_classes in (M_CLASSES[2.0], M_CLASSES[3.0])}


def test_kernel_results_match_the_digest_pinned_for_every_interpreter():
    # In process with numpy importable; tests/test_scripts.py checks the same
    # pins without numpy, and the 288-case one is pinned alike on 3.10 to 3.13.
    pinned = [pin for pin in capture_bits.pins(Path(__file__).with_name("capture_bits.sha256"))
              if pin[1] == "kernels" and pin[4] == capture_bits.family()]
    assert [pin[3] for pin in pinned] == [288, 324]
    for want, section, seed, cases, _ in pinned:
        assert capture_bits.digest(section, seed, cases) == want
