//! `ablate` — run the design-choice ablations.
//!
//! ```text
//! ablate all | hedging | congestion | reserved-cores | retry-budget  [--scale smoke|default|paper]
//! ```

use rpclens_bench::ablation::{render, run_ablation};
use rpclens_bench::scale_by_name;
use rpclens_fleet::driver::{Mechanism, SimScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = SimScale::smoke();
    let mut mechanisms = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(s) = iter.next().and_then(|n| scale_by_name(n)) else {
                    eprintln!("usage: ablate all|hedging|congestion|reserved-cores|retry-budget [--scale smoke|default|paper]");
                    std::process::exit(2);
                };
                scale = s;
            }
            "all" => mechanisms.extend(Mechanism::ALL),
            name => match Mechanism::parse(name) {
                Some(m) => mechanisms.push(m),
                None => {
                    eprintln!("unknown ablation {name}");
                    std::process::exit(2);
                }
            },
        }
    }
    if mechanisms.is_empty() {
        mechanisms.extend(Mechanism::ALL);
    }
    for mechanism in mechanisms {
        eprintln!(
            "running ablation {} at scale {}...",
            mechanism.name(),
            scale.name
        );
        print!("{}", render(&run_ablation(mechanism, &scale)));
    }
}
