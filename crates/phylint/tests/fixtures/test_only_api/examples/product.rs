fn main() {
    println!("{}", fixture_test_only_api::live());
}
