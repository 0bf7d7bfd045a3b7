//! True negative for the panic budget: fallible handling, justified
//! escapes, and test-only panics — all budget-free.

pub fn no_sites(v: &[u64], o: Option<u64>) -> u64 {
    let a = v.first().copied().unwrap_or(0);
    let b = o.unwrap_or_default();
    // hhsim: allow(panic-in-engine): index is bounds-checked by the guard above
    let c = if v.len() > 1 { v[1] } else { 0 };
    a + b + c
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic_freely() {
        let v = vec![1u64, 2];
        assert_eq!(v[0], 1);
        v.first().unwrap();
    }
}

/// Slice types, slice patterns and array literals that follow a keyword
/// are not index expressions.
pub fn keyword_led_brackets(rates: &mut [f64], pair: [u64; 2]) -> [u64; 2] {
    for scale in [0.5, 2.0] {
        if let [first, ..] = rates {
            *first *= scale;
        }
    }
    let [a, b] = pair;
    match [a, b] {
        [0, _] => return [b, a],
        _ => {}
    }
    [a, b]
}
