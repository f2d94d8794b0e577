"""The seeded property batteries of ``property_suites``, at their default
seeds and case counts."""

import pytest

import property_suites


@pytest.mark.parametrize("suite, cases", [
    (property_suites.gb_oracle_suite, 200),
    (property_suites.gb_block_oracle_suite, 200),
    (property_suites.truncated_basis_suite, 150),
    (property_suites.fibre_finiteness_suite, 60),
    (property_suites.relation_from_map_suite, 50),
    (property_suites.kernel_closure_suite, 50),
    (property_suites.effectivity_v_in_w_suite, 20),
    (property_suites.effectivity_class_suite, 20),
    (property_suites.effectivity_oracle_suite, 40),
    (property_suites.ideal_intersect_oracle_suite, 40),
    (property_suites.molien_suite, 24),
    (property_suites.relation_kernel_oracle_suite, 45),
    (property_suites.normal_form_oracle_suite, 200),
    (property_suites.spair_oracle_suite, 200),
    (property_suites.buchberger_oracle_suite, 1000),
    (property_suites.reduce_basis_oracle_suite, 500),
    (property_suites.signature_oracle_suite, 500),
    (property_suites.presentation_suite, 60),
    (property_suites.substitution_oracle_suite, 60),
    (property_suites.frobenius_suite, 40),
    (property_suites.pair_equalizer_suite, 60),
    (property_suites.pushout_oracle_suite, 60),
    (property_suites.rowspace_oracle_suite, 200),
])
def test_suite_runs_every_case(suite, cases):
    assert suite() == cases
