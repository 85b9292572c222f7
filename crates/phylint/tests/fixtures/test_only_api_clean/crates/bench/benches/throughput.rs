fn main() {
    println!("{}", fixture_test_only_api_clean::from_bench());
}
