#[test]
fn integration_test_is_not_a_root() {
    assert_eq!(fixture_test_only_api::only_from_tests(), 1);
}
