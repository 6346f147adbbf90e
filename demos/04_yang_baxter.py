"""Matrix Yang-Baxter tensors and the linear brackets they induce.

The defect evaluated here is the reversed-placement combination
[r12, r13] + [r12, r23] + [r32, r13]; it is the equation that makes
[r, V (x) 1] - [swap(r), 1 (x) V] a Poisson bracket on the entries of a
generic matrix.  Skew tensors satisfy it exactly when they satisfy the
textbook equation; the classical non-skew tensor with the half-Casimir
diagonal does not (the two variants differ by [C23, r13]), and its entry
bracket indeed fails Jacobi.
"""

from fractions import Fraction

from dbrackets import (MatTensor2, casimir, check_entry_jacobi, cybe_defect,
                       entry_bracket, format_mat_tensor2, standard_r)

print("== the classical tensor with half-Casimir diagonal, N = 2 ==")
r = standard_r(2)
print(format_mat_tensor2(r), end="")
sk = r - casimir(2).scale(Fraction(1, 2))
print("skew after removing half the Casimir:", sk.swap() == -sk)
print("reversed-placement defect is zero:", cybe_defect(r).is_zero())
print("entry-bracket Jacobi holds:",
      check_entry_jacobi(entry_bracket(r)).holds)

print()
print("== a skew solution (jordanian type) ==")
jord = MatTensor2(2, {(1, 1, 1, 2): 1, (2, 2, 1, 2): -1,
                      (1, 2, 1, 1): -1, (1, 2, 2, 2): 1})
print("skew:", jord.swap() == -jord)
print("defect is zero:", cybe_defect(jord).is_zero())
eb = entry_bracket(jord)
print("entry-bracket Jacobi:", check_entry_jacobi(eb))
print("{v11, v12} =",
      eb.pair((1, 1), (1, 2)).to_str(eb.poisson_structure().format_entry))

print()
print("== a genuine non-solution ==")
bad = MatTensor2(2, {(1, 2, 2, 1): 1})
print("defect is zero:", cybe_defect(bad).is_zero())
print("entry-bracket Jacobi:", check_entry_jacobi(entry_bracket(bad)).holds)
