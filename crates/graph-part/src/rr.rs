//! Round-robin data distribution — the paper's `RR` baseline.
//!
//! "Originally, we assign objects to Charm++ chares round-robin (RR) to
//! approximate static load balancing. However, this is not optimal in terms
//! of load balance and data locality" (§III-B).

use crate::Partition;

/// Assign vertex `v` to partition `v mod k`.
pub fn round_robin(n: u32, k: u32) -> Partition {
    assert!(k >= 1);
    Partition {
        k,
        assignment: (0..n).map(|v| v % k).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let p = round_robin(10, 3);
        assert_eq!(p.assignment, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        p.validate().unwrap();
    }

    #[test]
    fn round_robin_counts_even() {
        let p = round_robin(100, 7);
        let mut counts = [0u32; 7];
        for &a in &p.assignment {
            counts[a as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1);
    }

    #[test]
    fn k_larger_than_n() {
        let p = round_robin(3, 10);
        p.validate().unwrap();
        assert_eq!(p.assignment, [0, 1, 2]);
    }

    #[test]
    fn k_one() {
        assert!(round_robin(5, 1).assignment.iter().all(|&a| a == 0));
    }
}
