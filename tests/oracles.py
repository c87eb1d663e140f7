"""Independent reference implementations used to cross-check the engine.

Everything here is written the slow, obvious way — explicit index lists,
bubble sorts and dense elimination — deliberately sharing no code or
representation tricks with the package under test.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product


def sort_sign(indices):
    """Sign of the bubble sort bringing the list into increasing order.

    Returns (sign, sorted_list); 0 if any index repeats.
    """
    items = list(indices)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    for a, b in zip(items, items[1:]):
        if a == b:
            return 0, items
    return sign, items


def clifford_blade_product(a, b, p):
    """(sign, indices) for e_a · e_b in R_{p,q}: concatenate, sort, cancel pairs.

    Generators 1..p square to +1, the rest to -1.
    """
    items = list(a) + list(b)
    sign = 1
    # bubble sort, tracking transpositions
    changed = True
    while changed:
        changed = False
        for j in range(len(items) - 1):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
                changed = True
    # cancel adjacent equal pairs with the metric sign
    out = []
    j = 0
    while j < len(items):
        if j + 1 < len(items) and items[j] == items[j + 1]:
            if items[j] > p:
                sign = -sign
            j += 2
        else:
            out.append(items[j])
            j += 1
    return sign, tuple(out)


def wedge_blades(a, b):
    """(sign, indices) for e^a ∧ e^b; sign 0 when an index repeats."""
    sign, items = sort_sign(list(a) + list(b))
    return sign, tuple(items)


def hodge_blade(indices, n, dual_first=True):
    """(sign, complement) for the exterior star of e^I in dimension n."""
    comp = tuple(i for i in range(1, n + 1) if i not in indices)
    order = list(comp) + list(indices) if dual_first else list(indices) + list(comp)
    sign, _ = sort_sign(order)
    return sign, comp


def interior_blade(i, indices):
    """(sign, indices) for iota_i e^I; sign 0 when i is absent."""
    if i not in indices:
        return 0, ()
    pos = indices.index(i)
    return (-1) ** pos, tuple(x for x in indices if x != i)


def multiply_dicts(x, y, p):
    """Geometric product of {indices: coef} dicts the slow way."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            sign, ind = clifford_blade_product(a, b, p)
            out[ind] = out.get(ind, Fraction(0)) + sign * ca * cb
    return {k: v for k, v in out.items() if v}


def is_sub_idempotent(f, e, p):
    """True iff the {indices: coef} elements f and e are idempotents with f e = e f = f."""
    return (multiply_dicts(f, f, p) == f and multiply_dicts(e, e, p) == e
            and multiply_dicts(f, e, p) == f == multiply_dicts(e, f, p))


def wedge_dicts(x, y):
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            sign, ind = wedge_blades(a, b)
            if sign:
                out[ind] = out.get(ind, Fraction(0)) + sign * ca * cb
    return {k: v for k, v in out.items() if v}


def dense_rank(rows, n):
    """Rank of {indices: coef} rows over all 2^n blade columns, by full
    fraction Gaussian elimination (no sparsity, no pivot tricks)."""
    columns = []
    for mask in range(1 << n):
        columns.append(tuple(i + 1 for i in range(n) if mask >> i & 1))
    index = {c: j for j, c in enumerate(columns)}
    matrix = []
    for row in rows:
        vec = [Fraction(0)] * len(columns)
        for ind, coef in row.items():
            vec[index[ind]] += coef
        matrix.append(vec)
    return matrix_rank(matrix)


def f2_coset_certified(f, p):
    """The F_2 coset certificate of a {indices: coef} element, row by row.

    f passes when its support holds () and is closed under symmetric
    difference of index sets (an F_2 subspace T), and every row e_t * f,
    t in T, multiplied out, is f or -f.
    """
    support = set(f)
    if () not in support:
        return False
    for a in support:
        for b in support:
            if tuple(sorted(set(a) ^ set(b))) not in support:
                return False
    negated = {ind: -coef for ind, coef in f.items()}
    for t in support:
        row = multiply_dicts({t: Fraction(1)}, f, p)
        if row != f and row != negated:
            return False
    return True


def matrix_rank(matrix):
    """Rank of a list of equal-length rational rows, by full Gaussian elimination."""
    matrix = [[Fraction(v) for v in row] for row in matrix]
    width = len(matrix[0]) if matrix else 0
    rank = 0
    col = 0
    while rank < len(matrix) and col < width:
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / lead
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
        col += 1
    return rank


def principal_minors(matrix):
    """Leading principal minors of a rational square matrix, textbook cofactor-free
    elimination on a copy per minor size (slow but independent)."""
    minors = []
    for size in range(1, len(matrix) + 1):
        sub = [row[:size] for row in matrix[:size]]
        det = Fraction(1)
        for col in range(size):
            pivot = next((r for r in range(col, size) if sub[r][col]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                sub[col], sub[pivot] = sub[pivot], sub[col]
                det = -det
            det *= sub[col][col]
            for r in range(col + 1, size):
                factor = sub[r][col] / sub[col][col]
                sub[r] = [a - factor * b for a, b in zip(sub[r], sub[col])]
        minors.append(det)
    return minors


# -- real matrix representations of R_{0,n} ------------------------------------
#
# Each generator e_i goes to a Kronecker word over the 2x2 integer matrices
# I, X = sigma_x, Z = sigma_z and E = epsilon.  A word squares to -I and two
# words anticommute exactly as their letters say, by the mixed-product rule
# (A (x) B)(C (x) D) = AC (x) BD (Lounesto, Clifford Algebras and Spinors,
# 2nd ed., 2001, chs. 16-17).

LETTERS = {
    "I": [[1, 0], [0, 1]],
    "X": [[0, 1], [1, 0]],
    "Z": [[1, 0], [0, -1]],
    "E": [[0, -1], [1, 0]],
}


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def kron(a, b):
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def identity(size):
    return [[int(i == j) for j in range(size)] for i in range(size)]


def _scaled(a, s):
    return [[s * v for v in row] for row in a]


def _letter_sign(x, y):
    """s with xy = s * yx for two letters."""
    xy, yx = mat_mul(LETTERS[x], LETTERS[y]), mat_mul(LETTERS[y], LETTERS[x])
    return 1 if xy == yx else -1 if xy == _scaled(yx, -1) else 0


def anticommuting_words(n, length):
    """n words of the given length that each square to -I and pairwise
    anticommute: the first such set in a depth-first search over the
    words in lexicographic order, or None."""
    minus = _scaled(identity(2), -1)
    candidates = []
    for word in product("IXZE", repeat=length):
        squares = [mat_mul(LETTERS[x], LETTERS[x]) for x in word]
        if sum(sq == minus for sq in squares) % 2 == 1:  # the rest square to +I
            candidates.append(word)

    def anti(u, v):
        sign = 1
        for x, y in zip(u, v):
            sign *= _letter_sign(x, y)
        return sign == -1

    def extend(chosen, start):
        if len(chosen) == n:
            return chosen
        for j in range(start, len(candidates)):
            if all(anti(candidates[j], w) for w in chosen):
                found = extend(chosen + [candidates[j]], j + 1)
                if found:
                    return found
        return None

    return extend([], 0)


class MatrixRep:
    """rho: R_{0,n} -> real 2^length x 2^length matrices, e_i -> the i-th word.

    With doubled, the representation is rho (+) rho' with rho'(e_i) =
    -rho(e_i), as block diagonal matrices twice the size: faithful on
    R_{0,7} = M_8(R) (+) M_8(R), where rho alone kills one summand.
    Elements are {indices: coefficient} dicts, as in multiply_dicts.
    """

    def __init__(self, n, length, doubled=False):
        self.words = anticommuting_words(n, length)
        if self.words is None:
            raise ValueError(f"no {n} anticommuting words of length {length}")
        self.block = 1 << length
        self.doubled = doubled
        self.size = 2 * self.block if doubled else self.block

    def word_blade(self, indices):
        """rho(e_{i1} e_{i2} ...): per position the product of the letters, then kron."""
        out = [[1]]
        for pos in range(len(self.words[0])):
            m = identity(2)
            for i in indices:
                m = mat_mul(m, LETTERS[self.words[i - 1][pos]])
            out = kron(out, m)
        return out

    def __call__(self, x):
        block = [[0] * self.block for _ in range(self.block)]
        other = [[0] * self.block for _ in range(self.block)]
        for indices, coef in x.items():
            m = self.word_blade(indices)
            flip = -1 if len(indices) % 2 else 1  # rho'(e_I) = (-1)^|I| rho(e_I)
            for i in range(self.block):
                for j in range(self.block):
                    block[i][j] += coef * m[i][j]
                    other[i][j] += flip * coef * m[i][j]
        if not self.doubled:
            return block
        zero = [0] * self.block
        return ([row + zero for row in block]
                + [zero + row for row in other])

    def blocks(self, matrix):
        """The diagonal blocks of a representing matrix: one, or two when doubled."""
        if not self.doubled:
            return [matrix]
        b = self.block
        return [[row[:b] for row in matrix[:b]], [row[b:] for row in matrix[b:]]]


class ScanError(ValueError):
    """A text-grammar error from reference_parse_terms: message and character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _CharScanner:
    """The character-at-a-time scanner exprio used before its regex scanner,
    with the delimited blade e{i,j,...} added in the same style."""

    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_digits(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self, start, digits):
        try:
            return int(digits)
        except ValueError:
            raise ScanError(f"integer literal too long ({len(digits)} digits)", start) from None

    def check_index(self, i, prev, position):
        if i == 0:
            raise ScanError("blade index 0 is not valid", position)
        if i <= prev:
            raise ScanError("blade indices must be strictly increasing", position)
        if i > self.n:
            raise ScanError(f"blade index {i} exceeds dimension {self.n}", position)

    def blade(self):
        self.pos += 1  # the 'e'
        indices = []
        if self.peek() == "{":
            self.pos += 1
            while True:
                start = self.pos
                digits = self.take_digits()
                if not digits:
                    raise ScanError("expected a blade index", start)
                i = self.integer(start, digits)
                self.check_index(i, indices[-1] if indices else 0, start)
                indices.append(i)
                if self.peek() == ",":
                    self.pos += 1
                elif self.peek() == "}":
                    self.pos += 1
                    return tuple(indices)
                else:
                    raise ScanError("expected ',' or '}'", self.pos)
        start = self.pos
        digits = self.take_digits()
        if not digits:
            raise ScanError("expected blade indices after 'e'", self.pos)
        for offset, ch in enumerate(digits):
            self.check_index(int(ch), indices[-1] if indices else 0, start + offset)
            indices.append(int(ch))
        return tuple(indices)

    def rational(self):
        start = self.pos
        digits = self.take_digits()
        if not digits:
            raise ScanError("expected a number", start)
        num = self.integer(start, digits)
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        den_start = self.pos
        den_digits = self.take_digits()
        if not den_digits:
            raise ScanError("expected a denominator", den_start)
        den = self.integer(den_start, den_digits)
        if den == 0:
            raise ScanError("zero denominator", den_start)
        return Fraction(num, den)

    def term(self):
        ch = self.peek()
        if ch == "e":
            return Fraction(1), self.blade()
        if ch and ch in "0123456789":  # ch is '' at the end of the text: "expected a term"
            coef = self.rational()
            self.skip_ws()
            if self.peek() != "*":
                return coef, ()
            self.pos += 1
            self.skip_ws()
            if self.peek() == "e":
                return coef, self.blade()
            if self.peek() == "1":
                self.pos += 1
                return coef, ()
            raise ScanError("expected a blade after '*'", self.pos)
        raise ScanError("expected a term", self.pos)


def reference_parse_terms(text, n):
    """[(coefficient, indices), ...] of a text expression, read one character at a time."""
    sc = _CharScanner(text, n)
    sc.skip_ws()
    if sc.pos == len(text):
        raise ScanError("empty expression", sc.pos)
    terms = []
    sign = 1
    if sc.peek() == "-":
        sign = -1
        sc.pos += 1
        sc.skip_ws()
    while True:
        coef, indices = sc.term()
        terms.append((sign * coef, indices))
        sc.skip_ws()
        if sc.pos == len(text):
            return terms
        op = sc.peek()
        if op not in ("+", "-"):
            raise ScanError("expected '+' or '-'", sc.pos)
        sign = -1 if op == "-" else 1
        sc.pos += 1
        sc.skip_ws()


class SchemaCheckError(ValueError):
    """A JSON-schema error from reference_from_json_obj: message and field path."""

    def __init__(self, message, path):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def reference_from_json_obj(obj, max_dim=12):
    """(kind, space, {indices: nonzero Fraction}) of a JSON payload, checked field by field.

    space is (p, q) for kind 'clifford' and n for kind 'form'.  Every
    field of every term is checked in turn, in the order exprio used
    before its single-pass term reader, and the first fault is raised as
    SchemaCheckError with exprio's message and path.
    """
    def fail(message, path):
        raise SchemaCheckError(message, path)

    if not isinstance(obj, dict):
        fail("expected an object", "")
    for field in ("signature", "kind", "terms"):
        if field not in obj:
            fail(f"missing field '{field}'", "")
    sig = obj["signature"]
    if not (isinstance(sig, list) and len(sig) == 2 and all(_is_int(v) and v >= 0 for v in sig)):
        fail("expected [p, q] with non-negative integers", "signature")
    p, q = sig
    n = p + q
    if not 1 <= n <= max_dim:
        fail(f"total dimension must be in 1..{max_dim}", "signature")
    kind = obj["kind"]
    if kind not in ("clifford", "form"):
        fail("expected 'clifford' or 'form'", "kind")
    terms = obj["terms"]
    if not isinstance(terms, list):
        fail("expected a list", "terms")
    out = {}
    for i, item in enumerate(terms):
        tpath = f"terms[{i}]"
        if not isinstance(item, dict):
            fail("expected an object", tpath)
        for field in ("blade", "coef"):
            if field not in item:
                fail(f"missing field '{field}'", tpath)
        blade = item["blade"]
        if not (isinstance(blade, list) and all(_is_int(v) for v in blade)):
            fail("expected a list of integers", f"{tpath}.blade")
        prev = 0
        for v in blade:
            if v <= prev:
                fail(f"blade indices must be strictly increasing, got index {v}", f"{tpath}.blade")
            if v > n:
                fail(f"blade index {v} exceeds dimension {n}", f"{tpath}.blade")
            prev = v
        coef = item["coef"]
        if not isinstance(coef, str):
            fail("expected a string rational", f"{tpath}.coef")
        if re.fullmatch(r"-?[0-9]+(?:/[0-9]+)?", coef) is None:
            fail("expected integer ['/' positive-integer]", f"{tpath}.coef")
        num, _, den = coef.partition("/")
        try:
            value = Fraction(int(num), int(den or 1))
        except ValueError:
            fail("integer literal too long", f"{tpath}.coef")
        except ZeroDivisionError:
            fail("zero denominator", f"{tpath}.coef")
        out[tuple(blade)] = out.get(tuple(blade), 0) + value
    space = (p, q) if kind == "clifford" else n
    return kind, space, {ind: c for ind, c in out.items() if c}


def reference_to_json_obj(x):
    """The JSON object exprio.to_json writes for a multivector or form, built from term_map().

    Terms by grade, then by their index lists; each coef is str() of the reduced Fraction.
    """
    if hasattr(x, "sig"):
        p, q, kind = x.sig.p, x.sig.q, "clifford"
    else:
        p, q, kind = 0, x.n, "form"
    terms = [([i + 1 for i in range(p + q) if mask >> i & 1], Fraction(c))
             for mask, c in x.term_map().items()]
    terms.sort(key=lambda t: (len(t[0]), t[0]))
    return {"signature": [p, q], "kind": kind,
            "terms": [{"blade": ind, "coef": str(c)} for ind, c in terms]}


def g2_idempotent_metric_first(s):
    """The metric-first G2 test, the reference for g2_idempotent's primitive-first one.

    A degenerate induced metric is rejected first; then the formula is built
    and only f*f = f is required.  This reference reuses the package's metric
    and formula, so a differential test against it checks the order and the
    strength of the tests, not the formulas.  Returns f, or raises
    StructureError with the message the package used.
    """
    from cliffideal.exterior import HodgeConvention
    from cliffideal.structures import StructureError, _g2_formula, g2_metric

    if g2_metric(s).tag == "degenerate":
        raise StructureError("phi induces a degenerate metric")
    f = _g2_formula(s.phi, HodgeConvention.EXT_DUAL_FIRST)
    if f * f != f:
        raise StructureError("input does not induce an idempotent (not a normalized G2 structure)")
    return f


def validate_generators_reference(spec):
    """The generator checks by blade products, the reference for ideals.validate_generators.

    Each generator's square and each pair's two products come from
    blade_product_masks, and F_2 dependence from an echelon basis, so a
    differential test against it checks the parity identities the package
    uses instead.  Returns the package's GeneratorReport, violations in the
    package's order and words.
    """
    from cliffideal.algebra import blade_mask, blade_product_masks, blade_square_sign, blade_table
    from cliffideal.ideals import GeneratorReport, radon_hurwitz

    sig = spec.sig
    violations = []
    masks = [blade_mask(t, sig.n) for _, t in spec.generators]
    name = blade_table(sig.n).text.__getitem__

    for (_, t), mask in zip(spec.generators, masks):
        if blade_square_sign(t, sig) != 1:
            violations.append(f"generator {name(mask)} squares to -1")
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if blade_product_masks(masks[i], masks[j], sig) != blade_product_masks(masks[j], masks[i], sig):
                violations.append(f"generators {name(masks[i])} and {name(masks[j])} anticommute")
    basis = []  # echelon vectors with distinct leading bits
    for mask in masks:
        for vec in sorted(basis, reverse=True):
            mask = min(mask, mask ^ vec)
        if not mask:
            violations.append(f"generator {name(masks[len(basis)])} is a product of earlier generators")
            break
        basis.append(mask)
    expected = sig.q - radon_hurwitz(sig.q - sig.p)
    if len(masks) != expected:
        violations.append(f"expected {expected} generators for {sig}, got {len(masks)}")
    return GeneratorReport(ok=not violations, k=len(masks), expected_k=expected,
                           violations=tuple(violations))
