"""The mutation harness ``tests/mutate.py`` samples its sites by seed, and
each of its mutants differs from its source in one operator.  No mutant is
run here."""

import ast
import pathlib

import pytest

import mutate

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "windwalk"


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_sampled_mutants_repeat_by_seed_and_swap_one_operator(module):
    source = (SRC / f"{module}.py").read_text()
    chosen = mutate.sample(source, 8, seed=5)
    assert chosen == mutate.sample(source, 8, seed=5)
    assert len(chosen) == min(8, len(mutate.sites(source)))
    before = mutate.operators(ast.parse(source))
    for site in chosen:
        after = mutate.operators(ast.parse(mutate.mutant(source, site)))
        assert len(after) == len(before)
        assert [(a, b) for a, b in zip(before, after) if a != b] == [(site.op, site.swap)]


def test_sites_skip_comments_and_count_characters():
    source = "x = ('σ' < y  # a < b - c\n     - 2)\nz = a / b <= c\n"
    assert mutate.sites(source) == [mutate.Site(1, 9, "<"), mutate.Site(2, 5, "-"),
                                     mutate.Site(3, 6, "/"), mutate.Site(3, 10, "<=")]
    assert mutate.mutant(source, mutate.Site(3, 10, "<=")).splitlines()[2] == "z = a / b < c"
    assert mutate.sample(source, 4, seed=0) == mutate.sites(source)
    assert mutate.sample(source, 2, seed=0) != mutate.sample(source, 2, seed=1)
