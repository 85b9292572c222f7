use fixture_test_only_api_clean::{doubled, from_example, make_outer, Shape, Square};

fn main() {
    let total = from_example() + doubled(&[1, 2])[1] + make_outer().inner.v;
    println!("{}", total + Square(3).area());
}
