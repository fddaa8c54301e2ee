"""Two-row tabloids: the Specht module and the matching module coincide.

A tabloid of shape (n-k, k) is determined by its bottom-row set.  The
classical generators e_T are signed sums over the column group of a
standard tableau; the matching generators e_M are signed sums over the
group generated by the undotted arcs.  Relabelling line diagrams to
tabloids (undot set = bottom row) carries the expansion L_M to e_M, and
both generating sets span the same irreducible module in every degree —
that is the representation-theoretic content this package certifies.

The relabelling is the identity: a line diagram is the ``Tabloid`` of its
undot set.  The certificate and the ``specht`` and ``top-basis`` commands key
both as ``{bottom-row mask: +-1}`` (entry x at bit x-1) and read tableaux as
bottom rows and matchings as codes, constructing neither a tabloid nor a
matching; integer order on masks is the undot-set order.  Only the wrappers
in :mod:`springerrep.matchings` (``polytabloid``, ``matching_generator`` and
``emit_top_degree_basis``) decode the masks to tabloid sums.
e_T and L_M come from one product rule, ``pair_product``, over the columns
of T and the undotted arcs of M.  e_M does not: it is built from the arc
swaps of phi(M), so the check ``code_expansion_masks(*code) == e_M``
compares the shared rule with code it does not share.

No rank is computed and nothing is eliminated.  The down operator d sends
a subset mask S to the sum over x in S of S - {x}: on multilinear
polynomials it is the derivation sum_x d/dl_x, so it kills every product
over disjoint pairs of (l_b - l_a) (L8), and with U its transpose, dU - Ud =
n - 2j on the j-subsets (L9, Proctor), so for k <= n/2 its kernel on the
k-subsets has dimension C(n, k) - C(n, k-1) = syt_count(n, k) (both lemmas
are in ``tests/test_local_lemmas.py``).  One pass walks the pairs (T,
theta(T)) in the undot-set order.  Each e_T leads at {T} with coefficient 1
and each e_M at its own tableau, {T} = U_M, with coefficient +-1, a lead no
earlier pair had; d kills both, so each family is a basis of ker d.  The
standard e_T are a basis of S^(n-k,k) (Sagan, *The Symmetric Group*, Thm
2.5.2), so S^(n-k,k) = ker d = span{e_M} = span{L_M}, the image of the
homology, S_n-stable because d commutes with strand permutations: module
equality reads no chart.  The Specht characters come from Young's rule, not
from the action: no code is shared with the matching-module characters they
are paired with.
"""

from __future__ import annotations

from .codes import (_check_even, check_degree, check_partition, code_undotted, decode, pair_product, partitions_of,
                    standard_bottom_sets, standard_codes, subset_mask, subset_members, syt_count, transpose_mask,
                    undot_mask)
from .errors import VerificationError
from .linediagrams import code_expansion_masks
from .snaction import character_table, class_inner_product, irreducibility_check


def polytabloid_masks(n: int, bottom) -> dict[int, int]:
    """e_T as {bottom-row mask: +-1} for the standard tableau T on n vertices with
    sorted bottom row ``bottom``: the signed sum over its column group, the product
    over its height-two columns (top_c, bottom_c) of (bit(bottom_c) - bit(top_c))."""
    return pair_product(zip([v for v in range(1, n + 1) if v not in bottom], bottom))


def code_generator_masks(opens: int, dots: int) -> dict[int, int]:
    """e_M as {bottom-row mask: +-1} for the matching M with code ``(opens,
    dots)``: the signed sum over the group generated by the undotted arcs of
    M, each transposition (i j) acting on the bottom row of phi(M), the mask
    U_M, by exchanging i and j, signed by the subset's parity."""
    terms = {undot_mask(opens, dots): 1}
    for i, j in code_undotted(opens, dots):
        pair = 1 << (i - 1) | 1 << (j - 1)
        acc: dict[int, int] = {}
        for mask, coef in terms.items():
            for image, c in ((mask, coef), (transpose_mask(mask, pair), -coef)):
                acc[image] = acc.get(image, 0) + c
        terms = {mask: coef for mask, coef in acc.items() if coef}
    return terms


def down(vector: dict[int, int]) -> dict[int, int]:
    """The down operator on {mask: coef}: each mask S goes to the sum over its
    members x of S - {x}.  Zero coefficients are dropped."""
    out: dict[int, int] = {}
    get = out.get
    for mask, coef in vector.items():
        rest = mask
        while rest:
            low = rest & -rest
            out[mask ^ low] = get(mask ^ low, 0) + coef
            rest ^= low
    return {mask: coef for mask, coef in out.items() if coef}


def verify_module_equality(n: int, k: int) -> bool:
    """Certify span{e_T} = span{e_M}, both of the full dimension, in one pass
    over the pairs (T, theta(T)) of the degree, in undot-set order.

    Both families must number syt_count(n, k).  e_T must lead at {T} with
    coefficient 1 (the dominance lemma, Sagan, *The Symmetric Group*), and e_M
    at {T} = U_M with coefficient +-1, a {T} no earlier pair had, so both
    families are independent.  ``code_expansion_masks(*code) == e_M`` ties
    e_M to L_M and to the product rule of e_T.  Last, :func:`down` must kill
    each e_T and e_M, so each family spans its kernel, of dimension
    syt_count(n, k): the argument of the module docstring.  No chart is read.
    """
    bottoms, codes = standard_bottom_sets(n, k), standard_codes(n, k)
    expected = syt_count(n, k)
    if (len(bottoms), len(codes)) != (expected, expected):
        raise VerificationError(
            "dimension mismatch between Specht and matching modules",
            {"n": n, "k": k, "specht": len(bottoms), "matching": len(codes), "expected": expected},
        )
    leads: set[int] = set()  # the {T} of every pair checked so far
    for bottom, (opens, dots) in zip(bottoms, codes):
        lead = subset_mask(bottom)
        vector = polytabloid_masks(n, bottom)
        witness = {"n": n, "k": k, "bottom": bottom}
        if vector.get(lead) != 1 or max(vector) != lead:
            raise VerificationError("polytabloid is not unitriangular in the undot-set order", witness)
        e_m = code_generator_masks(opens, dots)
        top = max(e_m, default=None)
        m_witness = {"n": n, "k": k, **decode(opens, dots)}
        if top != lead or lead in leads or e_m[lead] not in (1, -1):
            raise VerificationError(
                "matching generators do not have distinct leading tabloids with coefficient +-1",
                {**m_witness, "tabloid": subset_members(top or 0)},
            )
        leads.add(lead)
        if code_expansion_masks(opens, dots) != e_m:
            raise VerificationError("relabelled expansion differs from matching generator", m_witness)
        if down(vector):
            raise VerificationError("polytabloid is not in the kernel of the down operator", witness)
        if down(e_m):
            raise VerificationError("matching generator is not in the kernel of the down operator", m_witness)
    return True


def specht_characters(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Character of the Specht module of shape (n-k, k), per cycle type.

    Young's rule for two-row shapes (James, *The Representation Theory of the
    Symmetric Groups*; Sagan, *The Symmetric Group*): chi = pi_k - pi_{k-1},
    where pi_j(sigma) counts the j-subsets of {1..n} that are unions of
    cycles of sigma, a subset-sum count over the cycle type.  The formula
    alone gives a virtual character off the two-row shapes, so n must be
    even and 0 <= k <= n/2, as for the matching basis.
    """
    check_degree(n, k)
    out = {}
    for parts in partitions_of(n):
        unions = [1] + [0] * k  # unions[j]: j-subsets that are unions of the cycles so far
        for part in parts:
            for j in range(k, part - 1, -1):
                unions[j] += unions[j - part]
        out[parts] = unions[k] - (unions[k - 1] if k else 0)
    return out


def graded_decomposition(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Identify the irreducible carried by each homology degree.

    For each k the matching-module character must be irreducible and must
    pair to 1 with the Specht character of shape (n-k, k); the result lists
    (k, (n-k, k)) for k = 0..n/2.
    """
    _check_even(n)
    out = []
    for k in range(n // 2 + 1):
        if irreducibility_check(n, k) != 1:
            raise VerificationError("degree is not irreducible", {"n": n, "k": k})
        pairing = class_inner_product(character_table(n, k), specht_characters(n, k))
        if pairing != 1:
            raise VerificationError(
                "degree does not pair to 1 with its Specht module",
                {"n": n, "k": k, "pairing": str(pairing)},
            )
        out.append((k, check_partition((n - k, k))))
    return out
