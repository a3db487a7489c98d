//! RPC error taxonomy and injection (Fig. 23).
//!
//! The paper finds 1.9% of all RPCs end in error; cancellations (mostly
//! from hedging) are 45% of errors but 55% of wasted cycles, and "entity
//! not found" is the next largest class. [`ErrorProfile`] injects errors
//! with configurable per-kind rates, and records how far through its
//! lifecycle an erroneous RPC got (which determines the cycles it wasted).

use rpclens_simcore::rng::Prng;
use serde::{Deserialize, Serialize};

/// The error classes observed in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The caller cancelled the RPC (including hedging losers).
    Cancelled,
    /// The requested entity does not exist.
    EntityNotFound,
    /// The server lacked resources to serve the request.
    NoResource,
    /// The caller lacked permission.
    NoPermission,
    /// The deadline expired before completion.
    DeadlineExceeded,
    /// The target was unavailable (task restarting, connection refused).
    Unavailable,
    /// An internal server failure.
    Internal,
    /// The operation was aborted (e.g. transaction conflicts).
    Aborted,
}

impl ErrorKind {
    /// All error kinds.
    pub const ALL: [ErrorKind; 8] = [
        ErrorKind::Cancelled,
        ErrorKind::EntityNotFound,
        ErrorKind::NoResource,
        ErrorKind::NoPermission,
        ErrorKind::DeadlineExceeded,
        ErrorKind::Unavailable,
        ErrorKind::Internal,
        ErrorKind::Aborted,
    ];

    /// Display label matching Fig. 23.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Cancelled => "Cancelled",
            ErrorKind::EntityNotFound => "Entity not found",
            ErrorKind::NoResource => "No resource",
            ErrorKind::NoPermission => "No permission",
            ErrorKind::DeadlineExceeded => "Deadline exceeded",
            ErrorKind::Unavailable => "Unavailable",
            ErrorKind::Internal => "Internal",
            ErrorKind::Aborted => "Aborted",
        }
    }

    /// This kind's position in [`ErrorKind::ALL`] (the declaration
    /// order), the dense index of per-kind tables.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Error injection profile: the per-RPC probability of each non-cancel
/// error kind.
///
/// Cancellations are *not* injected here — they are produced mechanically
/// by the hedging machinery (the winner cancels the loser), which is what
/// makes their wasted-cycle share larger than their count share.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorProfile {
    rates: Vec<(ErrorKind, f64)>,
    total: f64,
}

impl ErrorProfile {
    /// Creates a profile from `(kind, probability)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if any rate is negative/non-finite, the rates sum
    /// above 1, or [`ErrorKind::Cancelled`] is listed (cancellations come
    /// from hedging, not injection).
    pub fn new(rates: Vec<(ErrorKind, f64)>) -> Result<Self, &'static str> {
        let mut total = 0.0;
        for &(kind, rate) in &rates {
            if kind == ErrorKind::Cancelled {
                return Err("cancellations are produced by hedging, not injected");
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err("error rates must be finite and non-negative");
            }
            total += rate;
        }
        if total > 1.0 {
            return Err("error rates must sum to at most 1");
        }
        Ok(ErrorProfile { rates, total })
    }

    /// A no-errors profile.
    pub fn none() -> Self {
        ErrorProfile {
            rates: Vec::new(),
            total: 0.0,
        }
    }

    /// The fleet-default profile, tuned so that together with
    /// hedging-driven cancellations the fleet error rate lands near the
    /// paper's 1.9%, with "entity not found" the largest injected class.
    pub fn fleet_default() -> Self {
        ErrorProfile::new(vec![
            (ErrorKind::EntityNotFound, 0.0040),
            (ErrorKind::NoResource, 0.0013),
            (ErrorKind::NoPermission, 0.0011),
            (ErrorKind::DeadlineExceeded, 0.0012),
            (ErrorKind::Unavailable, 0.0014),
            (ErrorKind::Internal, 0.0008),
            (ErrorKind::Aborted, 0.0007),
        ])
        .expect("default profile is valid")
    }

    /// The residual semantic classes left for table injection when the
    /// causal fault plane is active: entity-not-found, permission,
    /// internal, and aborted failures arise from application semantics the
    /// simulator does not model mechanically. The mechanical classes —
    /// cancellations (hedging), deadline expiry (drawn deadlines),
    /// unavailability (crash/drain/partition episodes), and resource
    /// exhaustion (load shedding under overload surges) — are produced by
    /// the fleet driver itself, so the aggregate taxonomy still
    /// reconciles with Fig. 23.
    pub fn residual_default() -> Self {
        ErrorProfile::new(vec![
            (ErrorKind::EntityNotFound, 0.0040),
            (ErrorKind::NoPermission, 0.0011),
            (ErrorKind::Internal, 0.0008),
            (ErrorKind::Aborted, 0.0007),
        ])
        .expect("residual profile is valid")
    }

    /// Draws the error outcome for one RPC: `Some(kind)` or `None` for
    /// success.
    pub fn draw(&self, rng: &mut Prng) -> Option<ErrorKind> {
        if self.total == 0.0 {
            return None;
        }
        let u = rng.next_f64();
        let mut acc = 0.0;
        for &(kind, rate) in &self.rates {
            acc += rate;
            if u < acc {
                return Some(kind);
            }
        }
        None
    }

    /// The configured `(kind, rate)` pairs.
    pub fn rates(&self) -> &[(ErrorKind, f64)] {
        &self.rates
    }

    /// The fraction of an RPC's normal work that each error kind performs
    /// before failing (determines wasted cycles).
    ///
    /// Permission and not-found errors fail early (cheap validation);
    /// deadline and abort errors burn most of the work first.
    pub fn work_fraction(kind: ErrorKind) -> f64 {
        match kind {
            // A cancelled (hedged) RPC typically runs a large fraction of
            // its work before the winner returns.
            ErrorKind::Cancelled => 0.85,
            ErrorKind::EntityNotFound => 0.7,
            ErrorKind::NoResource => 0.5,
            ErrorKind::NoPermission => 0.35,
            ErrorKind::DeadlineExceeded => 1.0,
            ErrorKind::Unavailable => 0.2,
            ErrorKind::Internal => 0.6,
            ErrorKind::Aborted => 0.8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, kind) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn rejects_invalid_profiles() {
        assert!(ErrorProfile::new(vec![(ErrorKind::Cancelled, 0.1)]).is_err());
        assert!(ErrorProfile::new(vec![(ErrorKind::Internal, -0.1)]).is_err());
        assert!(ErrorProfile::new(vec![(ErrorKind::Internal, f64::NAN)]).is_err());
        assert!(
            ErrorProfile::new(vec![(ErrorKind::Internal, 0.6), (ErrorKind::Aborted, 0.6),])
                .is_err()
        );
    }

    #[test]
    fn none_profile_never_errors() {
        let p = ErrorProfile::none();
        let mut rng = Prng::seed_from(1);
        assert!((0..10_000).all(|_| p.draw(&mut rng).is_none()));
        assert_eq!(p.total, 0.0);
    }

    #[test]
    fn draw_matches_configured_rates() {
        let p = ErrorProfile::new(vec![
            (ErrorKind::EntityNotFound, 0.02),
            (ErrorKind::Unavailable, 0.01),
        ])
        .unwrap();
        let mut rng = Prng::seed_from(2);
        let n = 200_000;
        let mut nf = 0;
        let mut un = 0;
        for _ in 0..n {
            match p.draw(&mut rng) {
                Some(ErrorKind::EntityNotFound) => nf += 1,
                Some(ErrorKind::Unavailable) => un += 1,
                Some(other) => panic!("unexpected {other:?}"),
                None => {}
            }
        }
        assert!((nf as f64 / n as f64 - 0.02).abs() < 0.002);
        assert!((un as f64 / n as f64 - 0.01).abs() < 0.002);
    }

    #[test]
    fn fleet_default_rate_is_about_one_percent() {
        // Injected errors are ~1.05%; hedging cancellations add the rest
        // toward the paper's 1.9% total.
        let p = ErrorProfile::fleet_default();
        let r = p.total;
        assert!((0.008..0.013).contains(&r), "rate {r}");
        // Entity-not-found is the largest injected class.
        let max = p
            .rates()
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(max.0, ErrorKind::EntityNotFound);
    }

    #[test]
    fn residual_profile_drops_only_mechanical_classes() {
        let residual = ErrorProfile::residual_default();
        let full = ErrorProfile::fleet_default();
        // Every residual class appears in the full profile at the same
        // rate, so swapping profiles never changes semantic-error rates.
        for &(kind, rate) in residual.rates() {
            let full_rate = full
                .rates()
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, r)| *r)
                .expect("residual class present in fleet default");
            assert_eq!(rate, full_rate, "{kind:?}");
        }
        // The classes removed are exactly the mechanically-produced ones.
        let removed: Vec<ErrorKind> = full
            .rates()
            .iter()
            .filter(|(k, _)| residual.rates().iter().all(|(rk, _)| rk != k))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(
            removed,
            vec![
                ErrorKind::NoResource,
                ErrorKind::DeadlineExceeded,
                ErrorKind::Unavailable
            ]
        );
    }

    #[test]
    fn work_fractions_are_probabilities() {
        for kind in ErrorKind::ALL {
            let f = ErrorProfile::work_fraction(kind);
            assert!((0.0..=1.0).contains(&f), "{kind:?}: {f}");
        }
        // Cancelled work must be expensive relative to early-fail errors,
        // which is what makes its cycle share exceed its count share.
        assert!(
            ErrorProfile::work_fraction(ErrorKind::Cancelled)
                > ErrorProfile::work_fraction(ErrorKind::NoPermission)
        );
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            ErrorKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ErrorKind::ALL.len());
    }
}
