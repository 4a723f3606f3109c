"""The compiled wave kernels: one per species count and variant, O(n) source."""

import ast
import math
import random
import re

import pytest

from nbarrier import ReactionSpec, SystemSpec, integrate, kernels, residual
from nbarrier.exact import Profile
from nbarrier.kernels import UNROLL_LIMIT, _residual_source, _rk4_source

WRITERS = [(_residual_source, False), (_residual_source, True),
           (_rk4_source, True), (_rk4_source, False)]
WRITER_IDS = ["residual", "residual-m1", "rk4-m1", "rk4-degenerate"]


def drawn_system(rng, n, m):
    return SystemSpec(
        n=n, m=m, d=tuple(rng.uniform(0.3, 3.0) for _ in range(n)),
        l=tuple(rng.choice((1.0, 1.5, 2.0)) for _ in range(n)),
        theta=rng.uniform(-1.0, 1.0),
        reaction=ReactionSpec(
            sigma=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
            C=tuple(tuple(rng.uniform(0.1, 2.0) for _ in range(n)) for _ in range(n))))


def test_specs_with_one_species_count_share_one_kernel_per_variant(monkeypatch):
    monkeypatch.setattr(kernels, "_KERNELS", {})
    rng = random.Random(5)
    for k in range(50):
        m = (1.0, 1.5, 2.0, 3.0)[k % 4]
        spec = drawn_system(rng, 4, m)
        levels = tuple(rng.uniform(1.0, 2.0) for _ in range(4))
        profile = Profile(n=4, m=m, derivs=lambda x, levels=levels: tuple(
            (a + 0.1 * math.sin(x), 0.1 * math.cos(x), -0.1 * math.sin(x)) for a in levels))
        residual(spec, profile, [0.0, 0.5, 1.0])
        integrate(spec, levels, (0.0,) * 4, (0.0, 0.05), 0.01)
    assert sorted(kernels._KERNELS) == [("residual", 4, False), ("residual", 4, True),
                                        ("rk4", 4, False), ("rk4", 4, True)]


@pytest.mark.parametrize("write, variant", WRITERS, ids=WRITER_IDS)
def test_kernel_source_holds_no_coefficient(write, variant):
    # The only numbers are RK4's stage weights and the residual's initial 0.0.
    numbers = set(re.findall(r"(?<![\w.])\d+\.\d*", write(3, variant)))
    assert numbers <= {"0.0", "0.5", "1.0", "2.0", "6.0"}


@pytest.mark.parametrize("write, variant", WRITERS, ids=WRITER_IDS)
def test_kernel_source_grows_linearly_beyond_the_unroll_limit(write, variant):
    for n in (UNROLL_LIMIT + 1, 20, 100, 400):
        assert len(write(2 * n, variant)) <= 2.2 * len(write(n, variant)), n


def ast_depth(node):
    return 1 + max(map(ast_depth, ast.iter_child_nodes(node)), default=0)


@pytest.mark.parametrize("write, variant", WRITERS, ids=WRITER_IDS)
def test_kernel_source_nests_no_deeper_as_n_grows(write, variant):
    # A + chain of n products nests n deep, and the compiler's recursion
    # limit rejects one of about 3000; a kernel holds no expression whose
    # depth grows with n, so it compiles at any n.
    tree = ast.parse(write(200, variant))
    assert ast_depth(tree) <= max(ast_depth(ast.parse(write(k, variant)))
                                  for k in (2, UNROLL_LIMIT + 1))
    compile(tree, "<kernel>", "exec")


@pytest.mark.parametrize("write, variant", WRITERS, ids=WRITER_IDS)
def test_only_rows_of_one_or_two_products_are_a_plus_chain(write, variant):
    # A compensated sum (Python 3.12 on) rounds one or two addends as a +
    # chain from 0.0 does, but may round three or more otherwise.
    for n in (1, 2):
        source = write(n, variant)
        assert "sum(" not in source and "(0.0 + c0_0 * u0" in source, n
    for n in range(3, UNROLL_LIMIT + 1):
        rows = re.findall(r"\bt(\d+) = (.*)", write(n, variant))
        assert {int(i) for i, _ in rows} == set(range(n)), n
        assert all(" - sum((" in row and " + " not in row for _, row in rows), n
