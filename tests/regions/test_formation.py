"""Unit tests for region formation."""

import numpy as np
import pytest

from repro.program.binary import BinaryBuilder, call, loop, straight
from repro.regions.formation import RegionFormation, SeedSpans
from repro.regions.region import RegionKind
from repro.regions.registry import RegionRegistry


def build_binary():
    b = BinaryBuilder(base=0x10000)
    b.procedure("callee", [straight(32)])
    b.procedure("main", [
        straight(8),
        loop("alpha", body=16),
        loop("beta", body=[straight(4), loop("gamma", body=8)]),
        loop("call_loop", body=[straight(2), call("callee")]),
        straight(4),
    ])
    b.procedure("orphan", [straight(16)])  # never called
    return b.build()


BINARY = build_binary()


def pcs_at(address, count):
    return np.full(count, address, dtype=np.int64)


class TestSeedSelection:
    def test_hot_seeds_ordered_by_count(self):
        formation = RegionFormation(BINARY, RegionRegistry(),
                                    hot_fraction=0.1)
        pcs = np.concatenate([pcs_at(0x100, 50), pcs_at(0x200, 30),
                              pcs_at(0x300, 20)])
        assert formation.hot_seeds(pcs) == [0x100, 0x200, 0x300]

    def test_cold_addresses_excluded(self):
        formation = RegionFormation(BINARY, RegionRegistry(),
                                    hot_fraction=0.2)
        pcs = np.concatenate([pcs_at(0x100, 90), pcs_at(0x200, 10)])
        assert formation.hot_seeds(pcs) == [0x100]

    def test_max_seeds_cap(self):
        formation = RegionFormation(BINARY, RegionRegistry(),
                                    hot_fraction=0.01, max_seeds=3)
        pcs = np.concatenate([pcs_at(0x100 * i, 10) for i in range(1, 11)])
        assert len(formation.hot_seeds(pcs)) == 3

    def test_empty_ucr(self):
        formation = RegionFormation(BINARY, RegionRegistry())
        assert formation.hot_seeds(np.array([], dtype=np.int64)) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RegionFormation(BINARY, RegionRegistry(), hot_fraction=0.0)
        with pytest.raises(ValueError):
            RegionFormation(BINARY, RegionRegistry(), max_seeds=0)


class TestLoopFormation:
    def test_hot_loop_body_forms_loop_region(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry)
        alpha = BINARY.loop_span("alpha")
        outcome = formation.form(pcs_at(alpha[0] + 8, 100),
                                 interval_index=5)
        assert outcome.formed_any
        region = outcome.new_regions[0]
        assert (region.start, region.end) == alpha
        assert region.kind is RegionKind.LOOP
        assert region.formed_at_interval == 5

    def test_nested_loop_forms_innermost(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry)
        gamma = BINARY.loop_span("gamma")
        outcome = formation.form(pcs_at(gamma[0] + 8, 100))
        assert (outcome.new_regions[0].start,
                outcome.new_regions[0].end) == gamma

    def test_outer_loop_code_forms_outer_region(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry)
        beta = BINARY.loop_span("beta")
        # Address in beta's body but before gamma: the straight(4) chunk.
        outcome = formation.form(pcs_at(beta[0] + 2 * 4 + 4, 100))
        assert (outcome.new_regions[0].start,
                outcome.new_regions[0].end) == beta

    def test_existing_span_not_duplicated(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry)
        alpha = BINARY.loop_span("alpha")
        formation.form(pcs_at(alpha[0] + 8, 100))
        outcome = formation.form(pcs_at(alpha[0] + 8, 100))
        assert not outcome.formed_any
        assert outcome.seeds_resolved == 1
        assert len(registry) == 1

    def test_multiple_seeds_form_multiple_regions(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry, hot_fraction=0.1)
        alpha = BINARY.loop_span("alpha")
        gamma = BINARY.loop_span("gamma")
        pcs = np.concatenate([pcs_at(alpha[0] + 8, 50),
                              pcs_at(gamma[0] + 8, 50)])
        outcome = formation.form(pcs)
        spans = {(r.start, r.end) for r in outcome.new_regions}
        assert spans == {alpha, gamma}


class TestFormationFailure:
    def test_non_loop_code_fails(self):
        # Hot code in 'callee', which has no loops: the paper's crafty/gap
        # pathology — no region can be built, samples stay in the UCR.
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry)
        callee = BINARY.procedure("callee")
        outcome = formation.form(pcs_at(callee.start + 8, 100))
        assert not outcome.formed_any
        assert outcome.seeds_failed == 1
        assert outcome.failed_addresses == (callee.start + 8,)

    def test_address_outside_binary_fails(self):
        formation = RegionFormation(BINARY, RegionRegistry())
        outcome = formation.form(pcs_at(0x4, 100))
        assert outcome.seeds_failed == 1

    def test_trigger_count(self):
        formation = RegionFormation(BINARY, RegionRegistry())
        formation.form(pcs_at(0x4, 10))
        formation.form(pcs_at(0x4, 10))
        assert formation.trigger_count == 2


class TestInterprocedural:
    def test_called_from_loop_forms_procedure_region(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry, interprocedural=True)
        callee = BINARY.procedure("callee")
        outcome = formation.form(pcs_at(callee.start + 8, 100))
        assert outcome.formed_any
        region = outcome.new_regions[0]
        assert (region.start, region.end) == (callee.start, callee.end)
        assert region.kind is RegionKind.INTERPROCEDURAL

    def test_never_called_procedure_still_fails(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry, interprocedural=True)
        orphan = BINARY.procedure("orphan")
        outcome = formation.form(pcs_at(orphan.start + 8, 100))
        assert not outcome.formed_any
        assert outcome.seeds_failed == 1

    def test_loop_code_still_preferred_over_procedure(self):
        registry = RegionRegistry()
        formation = RegionFormation(BINARY, registry, interprocedural=True)
        alpha = BINARY.loop_span("alpha")
        outcome = formation.form(pcs_at(alpha[0] + 8, 100))
        assert outcome.new_regions[0].kind is RegionKind.LOOP


class TestSeedSpansMemo:
    def test_one_memo_serves_every_formation_of_a_binary(self):
        memo = SeedSpans(BINARY)
        first = RegionFormation(BINARY, RegionRegistry(), seed_spans=memo)
        second = RegionFormation(BINARY, RegionRegistry(), seed_spans=memo)
        alpha = BINARY.loop_span("alpha")
        first.form(pcs_at(alpha[0] + 8, 100))
        outcome = second.form(pcs_at(alpha[0] + 8, 100))
        assert [(r.start, r.end) for r in outcome.new_regions] == [alpha]
        assert len(memo) == 1

    def test_addresses_outside_the_program_are_not_kept(self):
        formation = RegionFormation(BINARY, RegionRegistry())
        for address in range(0x4, 0x400, 0x4):
            formation.form(pcs_at(address, 10))
        assert len(formation.seed_spans) == 0

    def test_memo_must_match_the_configuration(self):
        with pytest.raises(ValueError, match="seed_spans"):
            RegionFormation(BINARY, RegionRegistry(), interprocedural=True,
                            seed_spans=SeedSpans(BINARY))
