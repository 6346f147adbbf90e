"""Matrix Yang-Baxter checks and the induced entry brackets.

The defect implements the reversed-placement variant
[r12,r13] + [r12,r23] + [r32,r13] with r32 the swapped tensor in slots
(2,3), which is the equation the induced (12)-weak bracket construction
needs.  The classical tensor sum_{i<j} e_ij (x) e_ji + half the diagonal
solves the textbook equation [r12,r13] + [r12,r23] + [r13,r23] = 0
instead: since it satisfies r + swap(r) = Casimir, the two variants differ
by [C23, r13], which is nonzero.  Skew solutions satisfy both variants and
everything downstream; these tests freeze all of those facts.
"""

import itertools
from fractions import Fraction

import pytest

from dbrackets import (CPoly, EntryBracket, MatTensor2, casimir,
                       check_entry_jacobi, cybe_defect, entry_bracket,
                       format_mat_tensor2, parse_mat_tensor2, repspace,
                       standard_r)
from dbrackets.cli import main, run_text
from dbrackets.ybe import MAX_MATRIX_SIZE


def textbook_cybe_defect(r):
    r12, r13, r23 = r.embed((1, 2)), r.embed((1, 3)), r.embed((2, 3))
    return (r12.commutator(r13) + r12.commutator(r23) + r13.commutator(r23))


def jordanian(scale=1):
    """h (x) e - e (x) h with h = e11 - e22, e = e12: skew, solves both
    forms of the equation."""
    return MatTensor2(2, {(1, 1, 1, 2): scale, (2, 2, 1, 2): -scale,
                          (1, 2, 1, 1): -scale, (1, 2, 2, 2): scale})


def test_standard_r_values():
    r = standard_r(2)
    assert r.terms == {(1, 2, 2, 1): Fraction(1), (1, 1, 1, 1): Fraction(1, 2),
                       (2, 2, 2, 2): Fraction(1, 2)}
    assert standard_r(1).terms == {(1, 1, 1, 1): Fraction(1, 2)}


def test_casimir_values_and_swap_invariance():
    c = casimir(2)
    assert c.terms == {(1, 1, 1, 1): Fraction(1), (1, 2, 2, 1): Fraction(1),
                       (2, 1, 1, 2): Fraction(1), (2, 2, 2, 2): Fraction(1)}
    for n in (1, 2, 3):
        assert casimir(n).swap() == casimir(n)


@pytest.mark.parametrize("n", [2, 3])
def test_standard_r_skew_after_half_casimir(n):
    sk = standard_r(n) - casimir(n).scale(Fraction(1, 2))
    assert sk.swap() == -sk


def test_zero_tensor_solves():
    assert cybe_defect(MatTensor2(2, {})).is_zero()


def test_standard_r_solves_textbook_form():
    for n in (1, 2, 3):
        assert textbook_cybe_defect(standard_r(n)).is_zero()


def test_standard_r_against_reversed_placement_form():
    """The discrepancy frozen: zero at n = 1, the [C23, r13] correction
    otherwise."""
    assert cybe_defect(standard_r(1)).is_zero()
    for n in (2, 3):
        r = standard_r(n)
        defect = cybe_defect(r)
        c23 = casimir(n).embed((2, 3))
        assert defect == c23.commutator(r.embed((1, 3)))
        assert not defect.is_zero()


def test_skew_solutions_satisfy_both_forms():
    for r in (jordanian(), jordanian(Fraction(1, 3))):
        assert r.swap() == -r
        assert cybe_defect(r).is_zero()
        assert textbook_cybe_defect(r).is_zero()


def test_nilpotent_square_zero_tensor_solves_both_forms():
    # every commutator in either form shares a slot carrying e12*e12 = 0
    r = MatTensor2(2, {(1, 2, 1, 2): 1})
    assert cybe_defect(r).is_zero()
    assert textbook_cybe_defect(r).is_zero()
    assert check_entry_jacobi(entry_bracket(r)).holds


def test_genuine_non_solution():
    r = MatTensor2(2, {(1, 2, 2, 1): 1})
    assert not cybe_defect(r).is_zero()
    assert not textbook_cybe_defect(r).is_zero()
    assert not check_entry_jacobi(entry_bracket(r)).holds


def test_entry_bracket_zero():
    eb = entry_bracket(MatTensor2(2, {}))
    assert eb.table == {}
    assert check_entry_jacobi(eb).holds


def test_entry_bracket_is_linear_and_antisymmetric():
    for r in (standard_r(2), jordanian(), MatTensor2(2, {(1, 1, 2, 1): 3})):
        eb = entry_bracket(r)
        idx = [(i, j) for i in (1, 2) for j in (1, 2)]
        for ij in idx:
            for kl in idx:
                p = eb.pair(ij, kl)
                assert p.degree() <= 1
                assert (p + eb.pair(kl, ij)).is_zero()


def test_entry_bracket_standard_r_value():
    # oracle: expand [r, V (x) 1] - [swap(r), 1 (x) V] by hand at N = 2
    eb = entry_bracket(standard_r(2))
    v = lambda a, b: CPoly.var((0, a, b))
    assert eb.pair((1, 1), (2, 2)).is_zero()
    assert eb.pair((1, 1), (1, 2)) == v(1, 2).scale(Fraction(-1, 2))
    assert eb.pair((1, 1), (2, 1)) == v(2, 1).scale(Fraction(3, 2))
    assert eb.pair((1, 1), (1, 2)) == -eb.pair((1, 2), (1, 1))


def test_entry_jacobi_for_jordanian():
    assert check_entry_jacobi(entry_bracket(jordanian())).holds


def test_entry_jacobi_fails_for_standard_r():
    for n, tuples in ((2, 7), (3, 13)):
        r = check_entry_jacobi(entry_bracket(standard_r(n)))
        assert not r.holds
        assert r.tuples == tuples  # the count includes the witness


def test_entry_sweep_evaluates_increasing_triples(monkeypatch):
    """An antisymmetric entry table: the sweep covers all N^6 triples but
    evaluates the C(N^2, 3) strictly increasing ones."""
    calls = []
    real = repspace.jacobi_defect
    monkeypatch.setattr(repspace, "jacobi_defect",
                        lambda *args: calls.append(args) or real(*args))
    r = check_entry_jacobi(entry_bracket(MatTensor2(4, {(1, 2, 1, 2): 1})))
    assert r.holds and r.tuples == 4 ** 6 and len(calls) == 560
    calls.clear()
    r = check_entry_jacobi(entry_bracket(standard_r(3)))
    assert r.tuples == 13 and len(calls) == 2


def test_entry_sweep_of_a_table_that_is_not_antisymmetric_is_full():
    """{v, v} = v fails antisymmetry; its only failing triple repeats v,
    which the increasing sweep would never visit."""
    v = CPoly.var((0, 1, 1))
    r = check_entry_jacobi(EntryBracket(1, {((1, 1), (1, 1)): v}))
    assert not r.holds and r.tuples == 1
    assert r.witness == ("v[1,1]",) * 3 and r.defect == v.scale(3)


def test_cybe_implies_entry_jacobi_on_random_solutions():
    # scaled skew solutions remain solutions; their brackets remain Poisson
    for s in (2, Fraction(-1, 2), 5):
        r = jordanian(s)
        assert cybe_defect(r).is_zero()
        assert check_entry_jacobi(entry_bracket(r)).holds


def test_sparse_text_roundtrip():
    r = standard_r(3)
    text = format_mat_tensor2(r)
    assert parse_mat_tensor2(text) == r
    assert parse_mat_tensor2("1 2 2 1 1/2\n# comment\n\n2 1 1 2 -1/2\n") == \
        MatTensor2(2, {(1, 2, 2, 1): Fraction(1, 2),
                       (2, 1, 1, 2): Fraction(-1, 2)})
    with pytest.raises(ValueError):
        parse_mat_tensor2("1 2 3\n")
    with pytest.raises(ValueError, match="line 2: zero denominator"):
        parse_mat_tensor2("1 1 1 1 1\n1 2 2 1 1/0\n")


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1_0"])
@pytest.mark.parametrize("field", [3, 4])
def test_tensor_files_take_only_grammar_numbers(tmp_path, capsys, bad, field):
    """Indices are digits 0-9 and the coefficient is a session rational,
    [-]p[/q]; anything else is one usage error naming the file line."""
    parts = ["1", "1", "1", "1", "1"]
    parts[field] = bad
    path = tmp_path / "r.txt"
    path.write_text("1 1 1 1 -1/2\n" + " ".join(parts) + "\n")
    assert main(["ybe", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: ")
    assert captured.err.count("\n") == 1


def test_tensor_file_indices_are_positive_ascii_integers():
    for index in ("+1", "\u0661", "0", "-1"):
        with pytest.raises(ValueError, match="line 1: indices are positive"):
            parse_mat_tensor2(f"1 1 1 {index} 1\n")
    assert parse_mat_tensor2("1 1 01 1 -1/2\n") == \
        MatTensor2(1, {(1, 1, 1, 1): Fraction(-1, 2)})


@pytest.mark.parametrize("index, reason", [
    ("+1", ": expected 'NUMBER', found '+'"),
    ("1_0", ": expected 'EOF', found '_0'"),
    ("\u0661", ": unexpected character '\u0661'"),
    ("0x1", ": expected 'EOF', found 'x1'"),
    ("0", ""), ("-1", ""), ("-0", "")])
def test_tensor_file_indices_are_read_by_the_integer_grammar(index, reason):
    with pytest.raises(ValueError) as info:
        parse_mat_tensor2(f"1 1 1 1 1\n1 1 {index} 1 1\n")
    assert str(info.value) == (f"line 2: indices are positive integers, "
                               f"got '1 1 {index} 1 1'{reason}")


def test_matrix_size_budget_on_tensor_files(tmp_path, capsys):
    """A file's matrix size is its largest index, checked per line before
    any work; the sizes of tests, demos and the benchmark stay below it."""
    assert MAX_MATRIX_SIZE >= 6
    r = parse_mat_tensor2(f"1 1 1 {MAX_MATRIX_SIZE} 1\n")
    assert r.N == MAX_MATRIX_SIZE
    for command, line in (("check", "1 1 1 1000000 1"),
                          ("entry-jacobi", "1 2 1 1000 1"),
                          ("check", f"{MAX_MATRIX_SIZE + 1} 1 1 1 x")):
        path = tmp_path / "r.txt"
        path.write_text(f"1 1 1 1 -1/2\n{line}\n")
        assert main(["ybe", command, str(path)]) == 2
        captured = capsys.readouterr()
        index = max(int(p) for p in line.split()[:4])
        assert (captured.out, captured.err) == ("", (
            f"error: line 2: index {index} is above the largest matrix "
            f"size, {MAX_MATRIX_SIZE}\n"))


@pytest.mark.parametrize("argv", [["ybe", "standard", "{}"],
                                  ["ybe", "entry-jacobi", "--standard", "{}"]])
def test_matrix_size_budget_on_standard_tensors(capsys, argv):
    for n in (MAX_MATRIX_SIZE + 1, 10 ** 6):
        assert main([a.format(n) for a in argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"error: matrix size {n} is above the largest, "
            f"{MAX_MATRIX_SIZE}\n"))
    assert main(["ybe", "standard", str(MAX_MATRIX_SIZE)]) == 0
    assert capsys.readouterr().out == format_mat_tensor2(
        standard_r(MAX_MATRIX_SIZE))
    command = " ".join(argv).format(10 ** 6)
    assert run_text(f"algebra {{ gens: x }}\n{command}\n") == (
        "error: line 2, column 1: matrix size 1000000 is above the largest, "
        f"{MAX_MATRIX_SIZE}\n", 2)


def test_index_bounds_checked():
    with pytest.raises(ValueError):
        MatTensor2(2, {(1, 3, 1, 1): 1})
