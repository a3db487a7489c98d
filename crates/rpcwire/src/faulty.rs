//! Seeded fault injection for transports.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and perturbs the send path
//! with a deterministic, seeded schedule — the same discipline as
//! `fleet::faults`: all randomness flows from one [`Prng`], so a given
//! `(seed, config)` pair always produces the identical drop/duplicate/
//! reorder/corrupt sequence, and the invocation-semantics tests assert
//! exact outcomes instead of probabilistic ones.
//!
//! Faults are applied on *send* (the sender's NIC eats, copies, delays,
//! or mangles the datagram). Wrapping the client injects request-path
//! faults; wrapping the server's reply link injects response-path faults
//! — the case that separates at-most-once from at-least-once semantics,
//! because the server has already executed when the reply is lost.

use crate::transport::Transport;
use rpclens_simcore::rng::Prng;
use std::io;
use std::time::Duration;

/// Per-datagram fault probabilities. Draws happen in a fixed order
/// (drop, then duplicate, then reorder, then corrupt) so schedules are
/// reproducible across refactors of the wrapped transport.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability a sent datagram is silently dropped.
    pub drop_prob: f64,
    /// Probability a sent datagram is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a sent datagram is held back and delivered after the
    /// next send (pairwise reordering).
    pub reorder_prob: f64,
    /// Probability one bit of the datagram is flipped in flight.
    pub corrupt_prob: f64,
}

impl FaultConfig {
    /// No faults at all; the wrapper becomes a pass-through.
    pub fn none() -> FaultConfig {
        FaultConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            corrupt_prob: 0.0,
        }
    }

    /// A lossy-but-usable link: the default chaos schedule the semantics
    /// tests run under.
    pub fn lossy() -> FaultConfig {
        FaultConfig {
            drop_prob: 0.25,
            duplicate_prob: 0.15,
            reorder_prob: 0.10,
            corrupt_prob: 0.05,
        }
    }
}

/// Counters of what the fault plane actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Datagrams handed to `send`.
    pub sent: u64,
    /// Datagrams silently dropped.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Datagrams delivered out of order.
    pub reordered: u64,
    /// Datagrams with a bit flipped.
    pub corrupted: u64,
}

/// A [`Transport`] wrapper that injects seeded faults on the send path.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    config: FaultConfig,
    rng: Prng,
    /// A datagram held back for reordering, delivered after the next
    /// send (or flushed by [`FaultyTransport::flush_held`]).
    held: Option<Vec<u8>>,
    stats: FaultStats,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with a seeded fault schedule.
    pub fn new(inner: T, config: FaultConfig, seed: u64) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            config,
            rng: Prng::seed_from(seed).stream(0xFA_017),
            held: None,
            stats: FaultStats::default(),
        }
    }

    /// What the fault plane has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Delivers a datagram held for reordering, if any. Without this a
    /// held datagram only goes out after the *next* send — which is the
    /// point of reordering, but tests may want a clean flush at the end.
    pub fn flush_held(&mut self) -> io::Result<()> {
        if let Some(held) = self.held.take() {
            self.inner.send(&held)?;
        }
        Ok(())
    }

    fn deliver(&mut self, datagram: &[u8]) -> io::Result<()> {
        self.inner.send(datagram)?;
        if let Some(held) = self.held.take() {
            self.stats.reordered += 1;
            self.inner.send(&held)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        self.stats.sent += 1;
        // Fixed draw order keeps schedules stable: consume all four
        // decisions for every datagram regardless of earlier outcomes.
        let drop_it = self.rng.chance(self.config.drop_prob);
        let duplicate = self.rng.chance(self.config.duplicate_prob);
        let reorder = self.rng.chance(self.config.reorder_prob);
        let corrupt = self.rng.chance(self.config.corrupt_prob);
        if drop_it {
            self.stats.dropped += 1;
            return Ok(());
        }
        let mut datagram = datagram.to_vec();
        if corrupt && !datagram.is_empty() {
            self.stats.corrupted += 1;
            let at = self.rng.index(datagram.len());
            let bit = self.rng.index(8) as u8;
            datagram[at] ^= 1 << bit;
        }
        if reorder && self.held.is_none() {
            // Hold this one back; it rides behind the next datagram.
            self.held = Some(datagram);
            return Ok(());
        }
        if duplicate {
            self.stats.duplicated += 1;
            self.deliver(&datagram)?;
        }
        self.deliver(&datagram)
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.inner.recv(buf, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemLink;

    fn drain(link: &mut MemLink) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = [0u8; 256];
        while let Some(n) = link.recv(&mut buf, Duration::ZERO).unwrap() {
            out.push(buf[..n].to_vec());
        }
        out
    }

    #[test]
    fn passthrough_when_no_faults() {
        let (a, mut b) = MemLink::pair();
        let mut faulty = FaultyTransport::new(a, FaultConfig::none(), 1);
        for i in 0..20u8 {
            faulty.send(&[i]).unwrap();
        }
        let got = drain(&mut b);
        assert_eq!(got.len(), 20);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d, &vec![i as u8]);
        }
        assert_eq!(
            faulty.stats(),
            FaultStats {
                sent: 20,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let (a, mut b) = MemLink::pair();
            let mut faulty = FaultyTransport::new(a, FaultConfig::lossy(), seed);
            for i in 0..200u8 {
                faulty.send(&[i, i.wrapping_mul(3)]).unwrap();
            }
            faulty.flush_held().unwrap();
            (faulty.stats(), drain(&mut b))
        };
        let (stats_a, datagrams_a) = run(42);
        let (stats_b, datagrams_b) = run(42);
        assert_eq!(stats_a, stats_b);
        assert_eq!(datagrams_a, datagrams_b);
        // A different seed produces a different schedule.
        let (stats_c, datagrams_c) = run(43);
        assert!(stats_c != stats_a || datagrams_c != datagrams_a);
    }

    #[test]
    fn drops_lose_and_duplicates_multiply() {
        let (a, mut b) = MemLink::pair();
        let mut faulty = FaultyTransport::new(
            a,
            FaultConfig {
                drop_prob: 0.5,
                duplicate_prob: 0.5,
                reorder_prob: 0.0,
                corrupt_prob: 0.0,
            },
            7,
        );
        let n = 400;
        for i in 0..n {
            faulty.send(&[(i % 251) as u8]).unwrap();
        }
        let delivered = drain(&mut b).len() as u64;
        let stats = faulty.stats();
        assert_eq!(stats.sent, n);
        assert!(stats.dropped > 0 && stats.duplicated > 0);
        assert_eq!(delivered, n - stats.dropped + stats.duplicated);
    }

    #[test]
    fn reorder_swaps_adjacent_datagrams() {
        let (a, mut b) = MemLink::pair();
        let mut faulty = FaultyTransport::new(
            a,
            FaultConfig {
                drop_prob: 0.0,
                duplicate_prob: 0.0,
                reorder_prob: 0.4,
                corrupt_prob: 0.0,
            },
            11,
        );
        let n = 100u8;
        for i in 0..n {
            faulty.send(&[i]).unwrap();
        }
        faulty.flush_held().unwrap();
        let got = drain(&mut b);
        assert_eq!(got.len(), n as usize, "reordering must not lose data");
        let order: Vec<u8> = got.iter().map(|d| d[0]).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        assert_ne!(order, sorted, "seed 11 must actually reorder something");
        assert!(faulty.stats().reordered > 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (a, mut b) = MemLink::pair();
        let mut faulty = FaultyTransport::new(
            a,
            FaultConfig {
                drop_prob: 0.0,
                duplicate_prob: 0.0,
                reorder_prob: 0.0,
                corrupt_prob: 1.0,
            },
            13,
        );
        let original = [0u8; 32];
        faulty.send(&original).unwrap();
        let got = drain(&mut b);
        assert_eq!(got.len(), 1);
        let flipped_bits: u32 = got[0].iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped_bits, 1, "exactly one bit flipped");
    }
}
