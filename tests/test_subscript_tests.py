"""Unit tests for the subscript relation tests and signatures."""


from repro.analysis.dependence.signature import (
    SignatureIndex,
    signature_of,
)
from repro.analysis.dependence.subscript_tests import (
    ALL_RELATIONS,
    AliasRelation,
    NO_ALIAS,
    SAME_ONLY,
    relation_of_reference_pair,
)
from repro.analysis.readonly import read_only_variables
from repro.ir.dsl import parse_program
from repro.ir.stmt import Do


def region_of(body: str, *, decls: str, header: str = "do i = 1, 10"):
    src = f"""
program t
{decls}
  region R {header}
{body}
  end region
end program
"""
    return parse_program(src).regions[0]


def refs_of(region, variable, access=None):
    out = [r for r in region.references if r.variable == variable]
    if access is not None:
        out = [r for r in out if r.access.value == access]
    return out


def relation(region, ref_a, ref_b):
    return relation_of_reference_pair(
        ref_a, ref_b, region, read_only_variables(region)
    )


class TestScalarAndRank:
    def test_scalar_references_alias_everywhere(self):
        region = region_of("    s = s + 1", decls="  real s")
        read, = refs_of(region, "s", "read")
        write, = refs_of(region, "s", "write")
        assert relation(region, read, write) == ALL_RELATIONS

    def test_same_element_same_iteration(self):
        region = region_of("    a(i) = a(i) + 1", decls="  real a(10)")
        read, = refs_of(region, "a", "read")
        write, = refs_of(region, "a", "write")
        assert relation(region, read, write) == SAME_ONLY


class TestStrongSIV:
    def test_distance_one_before(self):
        # write a(i), read a(i-1): the read in iteration i+1 touches what
        # iteration i wrote -> the write runs in the older segment.
        region = region_of("    a(i) = a(i-1) + 1", decls="  real a(11)")
        read, = refs_of(region, "a", "read")
        write, = refs_of(region, "a", "write")
        assert relation(region, write, read) == {AliasRelation.BEFORE}
        # Mirrored order gives the mirrored answer.
        assert relation(region, read, write) == {AliasRelation.AFTER}

    def test_disjoint_strides(self):
        # a(2i) vs a(2i+1): even vs odd elements never meet.
        region = region_of(
            "    a(2 * i) = a(2 * i + 1) + 1", decls="  real a(24)"
        )
        read, = refs_of(region, "a", "read")
        write, = refs_of(region, "a", "write")
        assert relation(region, write, read) == NO_ALIAS

    def test_distance_beyond_trip_count(self):
        # Distance 20 exceeds the 10-iteration trip count: no alias.
        region = region_of("    a(i) = a(i + 20) + 1", decls="  real a(40)")
        read, = refs_of(region, "a", "read")
        write, = refs_of(region, "a", "write")
        assert relation(region, write, read) == NO_ALIAS


class TestConservativeCases:
    def test_subscripted_subscript_is_may(self):
        region = region_of(
            "    a(k(i)) = a(i) + 1", decls="  real a(10)\n  integer k(10) = 1"
        )
        write, = refs_of(region, "a", "write")
        read = refs_of(region, "a", "read")[-1]
        assert relation(region, write, read) == ALL_RELATIONS

    def test_symbolic_invariant_offsets_cancel(self):
        # a(i+n) vs a(i+n): same symbolic term on both sides cancels.
        region = region_of(
            "    a(i + n) = a(i + n) + 1",
            decls="  real a(30)\n  integer n = 5",
        )
        read, = refs_of(region, "a", "read")
        write, = refs_of(region, "a", "write")
        assert relation(region, read, write) == SAME_ONLY


class TestInnerLoopRanges:
    def test_inner_loop_expansion_disjoint_columns(self):
        # Writes column j of a 2-D array; different j never collide.
        body = """    do t = 1, 4
      a(t, 2 * j) = a(t, 2 * j + 1) + 1
    end do"""
        region = region_of(
            body, decls="  real a(4, 44)", header="do j = 1, 10"
        )
        write, = refs_of(region, "a", "write")
        read, = refs_of(region, "a", "read")
        assert relation(region, write, read) == NO_ALIAS

    def test_enclosing_loops_carry_do_statements(self):
        body = """    do t = 1, 4
      a(t, j) = a(t, j) + 1
    end do
    do t = 1, 3
      a(t, j) = 0
    end do"""
        region = region_of(body, decls="  real a(4, 12)", header="do j = 1, 10")
        ref = refs_of(region, "a", "write")[0]
        (header,) = ref.enclosing_loops
        assert header.index == "t"
        assert header.constant_trip_count() == 4
        # One header per Do: each loop's references name its own header.
        first, second = region.body
        assert isinstance(first, Do) and first.header is header
        assert header.sid == first.sid
        assert first.header is not second.header
        assert [r.enclosing_loops for r in region.references] == (
            [(first.header,)] * 2 + [(second.header,)]
        )


class TestSignatures:
    def test_equal_references_share_signature(self):
        body = """    a(i) = a(i) + 1
    a(i) = a(i) + 2"""
        region = region_of(body, decls="  real a(10)")
        invariant = read_only_variables(region)
        writes = refs_of(region, "a", "write")
        sig0 = signature_of(writes[0], region.index, invariant)
        sig1 = signature_of(writes[1], region.index, invariant)
        assert sig0 == sig1

    def test_signature_pair_matches_reference_pair(self):
        body = "    a(i) = a(i - 1) + a(i + 2)"
        region = region_of(body, decls="  real a(20)")
        invariant = read_only_variables(region)
        index = SignatureIndex(region=region, invariant_symbols=frozenset(invariant))
        refs = refs_of(region, "a")
        for ra in refs:
            for rb in refs:
                assert index.relations_of(ra, rb) == relation_of_reference_pair(
                    ra, rb, region, invariant
                )

    def test_group_count_collapses_duplicates(self):
        body = "\n".join("    a(i) = a(i - 1) + 1" for _ in range(6))
        region = region_of(body, decls="  real a(11)")
        index = SignatureIndex(
            region=region, invariant_symbols=frozenset(read_only_variables(region))
        )
        for ref in refs_of(region, "a"):
            index.group_of(ref)
        # 12 references but only two distinct signatures: a(i) and a(i-1).
        assert index.group_count() == 2
