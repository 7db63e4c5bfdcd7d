//! Convergence-time measurement (§5.2.2).
//!
//! The paper reports the number of slots a scheme needs "to reach
//! steady-state ('steady' meaning that the throughput is within 1 % of the
//! final throughput)". This module applies that criterion to a trajectory of
//! per-slot rates.

/// Relative tolerance around the final value (1 % in §5.2.2).
pub const TOLERANCE: f64 = 0.01;
/// How many trailing slots are averaged for the "final" value.
pub const FINAL_WINDOW: usize = 50;

/// Returns the first slot index from which the trajectory stays within
/// [`TOLERANCE`] of its final value forever after, or `None` if the final
/// window itself is not steady.
pub fn slots_to_converge(trajectory: &[f64]) -> Option<usize> {
    if trajectory.is_empty() {
        return None;
    }
    let window = FINAL_WINDOW.min(trajectory.len());
    let final_value: f64 =
        trajectory[trajectory.len() - window..].iter().sum::<f64>() / window as f64;
    let tol = TOLERANCE * final_value.abs().max(f64::MIN_POSITIVE);
    // Walk backwards: find the last slot that violates the tolerance band.
    let mut first_steady = 0;
    for (i, &v) in trajectory.iter().enumerate().rev() {
        if (v - final_value).abs() > tol {
            first_steady = i + 1;
            break;
        }
    }
    (first_steady < trajectory.len()).then_some(first_steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_ramp_converges_at_the_band_entry() {
        // 0, 1, 2, ..., 99 then flat at 100 for 100 slots.
        let mut traj: Vec<f64> = (0..100).map(|i| i as f64).collect();
        traj.extend(std::iter::repeat_n(100.0, 100));
        let t = slots_to_converge(&traj).unwrap();
        // Final = 100 (trailing window is flat); band is ±1; slot 99 has
        // value 99 which is inside, slot 98 (98.0) is outside.
        assert_eq!(t, 99);
    }

    #[test]
    fn flat_trajectory_converges_immediately() {
        let traj = vec![5.0; 200];
        assert_eq!(slots_to_converge(&traj), Some(0));
    }

    #[test]
    fn oscillating_tail_never_converges() {
        let traj: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 10.0 } else { 20.0 }).collect();
        assert_eq!(slots_to_converge(&traj), None);
    }

    #[test]
    fn late_spike_delays_convergence() {
        let mut traj = vec![10.0; 200];
        traj[100] = 20.0;
        let t = slots_to_converge(&traj).unwrap();
        assert_eq!(t, 101);
    }

    #[test]
    fn empty_trajectory_is_none() {
        assert_eq!(slots_to_converge(&[]), None);
    }

    #[test]
    fn zero_final_value_is_handled() {
        let traj = vec![0.0; 100];
        assert_eq!(slots_to_converge(&traj), Some(0));
    }
}
