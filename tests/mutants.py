"""Mutation checks: each mutant must make the tests named for it fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

A mutant is a list of edits, each an exact snippet of a file under `src/`
and its replacement, and the tier-1 tests that must kill it.  The runner
copies `src/` to a temporary directory and stops with an error unless
every snippet occurs exactly once in its file there.  It then runs all the
named tests against the unmutated copy, which must pass, and per mutant
applies its edits, runs its tests in a subprocess against the copy
(`pytest -x`), requires them to fail, and restores the files.  It prints
one line per mutant and exits 0 iff every mutant was killed.

Never weaken a mutant to make it die: a survivor means the tests miss a
fault, and the tests are what should change.  Pytest does not collect this
file (its name does not start with `test_`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Edit(NamedTuple):
    path: str  # relative to src/ikernel
    snippet: str
    replacement: str


class Mutant(NamedTuple):
    name: str
    edits: tuple[Edit, ...]
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


def _one(path: str, snippet: str, replacement: str) -> tuple[Edit, ...]:
    return (Edit(path, snippet, replacement),)


EXACTLIN = "tests/test_exactlin.py"
ALGEBRA = "tests/test_algebra.py"
HARNESS = "tests/test_harness.py"
STREAM = f"{ALGEBRA}::test_the_product_stream_skips_only_products_dependent_at_their_turn"
POLY = "tests/test_poly.py"
SWEEP = f"{POLY}::test_substitute_matches_the_per_factor_loop_under_every_cap"

MUTANTS = (
    Mutant(
        "solve-reads-the-first-kernel-vector",
        _one(
            "exactlin.py",
            "    if not kernel or rhs not in kernel[-1]:\n"
            "        return None\n"
            "    s = kernel[-1][rhs]\n"
            "    return {j: Fraction(-x, s) for j, x in kernel[-1].items() if j != rhs}\n",
            "    if not kernel or rhs not in kernel[0]:\n"
            "        return None\n"
            "    s = kernel[0][rhs]\n"
            "    return {j: Fraction(-x, s) for j, x in kernel[0].items() if j != rhs}\n",
        ),
        (
            f"{EXACTLIN}::test_solve_matches_the_last_fraction_kernel_vector",
            "tests/test_actions.py::test_composition_rule_with_dependent_parameters",
        ),
    ),
    Mutant(
        "solve-sign-flipped-and-no-group-law-check",
        (
            Edit(
                "exactlin.py",
                "    return {j: Fraction(-x, s) for j, x in kernel[-1].items() if j != rhs}\n",
                "    return {j: Fraction(x, s) for j, x in kernel[-1].items() if j != rhs}\n",
            ),
            Edit(
                "actions.py",
                "    if not check_group_law(substitution, rule):\n        return None\n    return rule\n",
                "    return rule\n",
            ),
        ),
        (
            "tests/test_actions.py::test_derived_composition_rule",
            f"{EXACTLIN}::test_solve_columns",
        ),
    ),
    Mutant(
        "integer-kernel-without-the-peel",
        (
            Edit("exactlin.py", "    while forcing:\n", "    while forcing and False:\n"),
            Edit(
                "exactlin.py",
                "        if len(row) > 1:\n            ech.insert(_integer_terms(row)[0])\n",
                "        if row:\n            ech.insert(_integer_terms(row)[0])\n",
            ),
        ),
        (
            f"{EXACTLIN}::test_integer_kernel_peels_a_chain_without_eliminating",
            f"{EXACTLIN}::test_integer_kernel_peels_a_three_deep_cascade",
        ),
    ),
    Mutant(
        "integer-kernel-inserts-unscaled-rows",
        _one(
            "exactlin.py",
            "            ech.insert(_integer_terms(row)[0])\n",
            "            ech.insert(row)\n",
        ),
        (
            f"{EXACTLIN}::test_integer_kernel_peels_past_zero_and_fraction_entries",
            f"{EXACTLIN}::test_integer_kernel_matches_dense_oracle_on_keyed_columns",
        ),
    ),
    Mutant(
        "spans-same-without-the-key-set-check",
        _one(
            "exactlin.py",
            "            if a.keys() != b.keys() or any(v * bp != b[m] * ap for m, v in a.items()):\n",
            "            if any(v * bp != b.get(m, 0) * ap for m, v in a.items()):\n",
        ),
        (f"{EXACTLIN}::test_spans_same_matches_comparing_polynomials",),
    ),
    Mutant(
        "spans-same-without-the-pivot-check",
        _one(
            "exactlin.py",
            "        if self.varsys != other.varsys or self.pivots != other.pivots:\n",
            "        if self.varsys != other.varsys:\n",
        ),
        (f"{EXACTLIN}::test_spans_same_rejects_different_spaces",),
    ),
    Mutant(
        "membership-walks-coordinates-unsorted",
        _one("algebra.py", "        for i in sorted(coords):\n", "        for i in coords:\n"),
        (f"{ALGEBRA}::test_membership_certificates_match_the_dense_coordinate_route",),
    ),
    Mutant(
        "generator-filter-drops-each-block-first-generator",
        _one(
            "algebra.py",
            "                gens = [gen for lower, _, gen in self._pieces[e].sources if lower == 0]\n",
            "                gens = [gen for lower, _, gen in self._pieces[e].sources if lower == 0][1:]\n",
        ),
        (STREAM,),
    ),
    Mutant(
        "decomposable-view-takes-the-lone-generators",
        _one(
            "algebra.py",
            "            if (lower == 0) == lone:\n",
            "            if lower == 0 or not lone:\n",
        ),
        (f"{ALGEBRA}::test_decomposable_span_matches_the_pairwise_products",),
    ),
    Mutant(
        "lower-rows-keep-only-later-stamps",
        _one(
            "algebra.py",
            "for (i, row), s in zip(enumerate(lower.basis.rows), lower.stamps) if s >= e]\n",
            "for (i, row), s in zip(enumerate(lower.basis.rows), lower.stamps) if s > e]\n",
        ),
        (STREAM,),
    ),
    Mutant(
        "lower-rows-without-the-lone-block-branch",
        _one(
            "algebra.py",
            "            ech.block = math.inf  # A_0's stream has no blocks: the row 1 lies in no P(0, e)\n",
            "",
        ),
        (f"{ALGEBRA}::test_graded_piece_low_degrees",),
    ),
    Mutant(
        "fill-builds-only-the-requested-degree",
        _one("algebra.py", "            for d in range(degree + 1):\n", "            for d in (degree,):\n"),
        (
            f"{ALGEBRA}::test_pieces_do_not_depend_on_the_order_of_the_queries",
            f"{ALGEBRA}::test_degree_1000_queries_fill_the_degrees_below_without_recursing",
        ),
    ),
    Mutant(
        "echelon-leaves-back-reduced-holders-unstamped",
        _one("exactlin.py", "            stamps[q] = block\n", ""),
        (STREAM,),
    ),
    Mutant(
        "joint-kernel-keeps-only-the-first-derivation",
        _one(
            "derivation.py",
            "        domain = kernel_span(domain, [drv._leibniz({}, row.items()) for row in domain.rows])\n",
            "        if drv is derivations[0]:\n"
            "            domain = kernel_span(domain, [drv._leibniz({}, row.items()) for row in domain.rows])\n",
        ),
        (
            "tests/test_derivation.py::test_kernel_examples",
            "tests/test_derivation.py::test_kernel_matches_dense_oracle_with_fractional_rows",
        ),
    ),
    Mutant(
        "graded-basis-without-the-homogeneity-raise",
        _one(
            "algebra.py",
            "            if len(degrees) > 1 or 0 in degrees:\n"
            '                raise NotHomogeneous(f"generator {label!r} is not homogeneous of positive degree")\n',
            "",
        ),
        (f"{ALGEBRA}::test_homogeneity_enforced",),
    ),
    Mutant(
        "substitution-without-the-identity-values-check",
        _one(
            "actions.py",
            "        if set(identity_values) != set(params):\n"
            '            raise ValueError("identity values must cover exactly the parameters")\n',
            "",
        ),
        ("tests/test_actions.py::test_substitution_parameters_follow_the_declared_order",),
    ),
    Mutant(
        "instance-drops-the-squarefree-monomials-without-x1",
        _one(
            "actions.py",
            "        for mask in range(1, 1 << n):\n",
            "        for mask in range(1, 1 << n, 2):\n",
        ),
        ("tests/test_actions.py::test_swapping_like_coordinates_maps_each_space_onto_itself",),
    ),
    Mutant(
        "frame-iterates-the-indices-descending",
        _one(
            "poly.py",
            "    for combo in combinations_with_replacement(idxs, degree):\n",
            "    for combo in combinations_with_replacement(idxs[::-1], degree):\n",
        ),
        (
            "tests/test_poly.py::test_frames_match_the_exponent_recursion",
            "tests/test_golden_digests.py::test_report_digest_is_pinned[lemma-infini-1-1-4]",
        ),
    ),
    Mutant(
        "membership-key-without-the-target",
        _one(
            "algebra.py",
            "    return names, tuple(map(tuple, generators)), certificate_text(data, \"target\"), expression\n",
            "    return names, tuple(map(tuple, generators)), expression, expression\n",
        ),
        (f"{HARNESS}::test_a_copy_that_differs_in_one_read_field_fails_at_its_own_index",),
    ),
    Mutant(
        "membership-key-without-the-generators",
        _one(
            "algebra.py",
            "    return names, tuple(map(tuple, generators)), certificate_text(data, \"target\"), expression\n",
            "    return names, (), certificate_text(data, \"target\"), expression\n",
        ),
        (f"{HARNESS}::test_a_copy_that_differs_in_one_read_field_fails_at_its_own_index",),
    ),
    Mutant(
        "membership-key-without-the-variables",
        _one(
            "algebra.py",
            "    return names, tuple(map(tuple, generators)), certificate_text(data, \"target\"), expression\n",
            "    return (), tuple(map(tuple, generators)), certificate_text(data, \"target\"), expression\n",
        ),
        (f"{HARNESS}::test_a_copy_that_differs_in_one_read_field_fails_at_its_own_index",),
    ),
    Mutant(
        "parser-unit-atom-charges-nothing",
        _one(
            "poly.py",
            "                        self._charge(self.n_words * _fraction_words(num, den))\n",
            "                        self._charge(0)\n",
        ),
        (f"{POLY}::test_parse_work_matches_the_golden_table",),
    ),
    Mutant(
        "substitution-unit-image-charges-nothing",
        _one(
            "poly.py",
            "                    charge(n_words * _fraction_words(num, den))\n",
            "                    charge(0)\n",
        ),
        (SWEEP,),
    ),
    Mutant(
        "substitution-first-image-power-charges-nothing",
        _one("poly.py", "            charge(len(imap) * n_words * w)\n", "            charge(0)\n"),
        (SWEEP,),
    ),
    Mutant(
        "scaled-words-shortcut-up-to-127-bits",
        _one(
            "poly.py",
            "    if num.bit_length() + den.bit_length() + widest.bit_length() <= 64:\n",
            "    if num.bit_length() + den.bit_length() + widest.bit_length() < 128:\n",
        ),
        (SWEEP,),
    ),
    Mutant(
        "run-without-the-out-pre-check",
        _one("cli.py", "    if args.out:\n        _check_out(args.out)\n", ""),
        ("tests/test_cli.py::test_run_out_that_cannot_be_written_is_a_usage_error",),
    ),
)


def _check_snippets(package: Path, mutants: tuple[Mutant, ...]) -> None:
    """Stop unless every snippet occurs exactly once in its pristine file."""
    bad = []
    for mutant in mutants:
        for edit in mutant.edits:
            count = (package / edit.path).read_text(encoding="utf-8").count(edit.snippet)
            if count != 1:
                bad.append(f"{mutant.name}: snippet in {edit.path} occurs {count} times")
    if bad:
        sys.exit("stale mutants (edit them to match the source):\n  " + "\n  ".join(bad))


def _pytest(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ikernel-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        package = src / "ikernel"
        _check_snippets(package, MUTANTS)
        probe = subprocess.run(
            [sys.executable, "-c", "import ikernel; print(ikernel.__file__)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
        if Path(probe.stdout.strip()).parent != package:
            sys.exit(f"the copy is not what gets imported: {probe.stdout.strip() or probe.stderr}")
        baseline = _pytest(src, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if baseline.returncode != 0:
            sys.exit("the named tests fail on the unmutated source:\n" + baseline.stdout[-3000:])
        survivors = []
        for mutant in MUTANTS:
            originals = {e.path: (package / e.path).read_text(encoding="utf-8") for e in mutant.edits}
            for edit in mutant.edits:
                target = package / edit.path
                target.write_text(
                    target.read_text(encoding="utf-8").replace(edit.snippet, edit.replacement),
                    encoding="utf-8",
                )
            try:
                result = _pytest(src, mutant.tests)
            finally:
                for path, text in originals.items():
                    (package / path).write_text(text, encoding="utf-8")
            # Exit 1: tests failed.  2-5 (interrupted, internal or usage error,
            # nothing collected) say nothing about the mutant.
            verdict = {0: "SURVIVED", 1: "killed"}.get(result.returncode, f"ERROR (pytest exit {result.returncode})")
            print(f"{verdict:>8}  {mutant.name}", flush=True)
            if result.returncode != 1:
                survivors.append(mutant.name)
                if result.returncode > 1:
                    print(result.stdout[-2000:] + result.stderr[-2000:])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
