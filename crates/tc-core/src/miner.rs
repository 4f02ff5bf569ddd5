//! The common interface of the three theme-community finders.

use crate::network::DatabaseNetwork;
use crate::result::MiningResult;

/// A theme-community finding algorithm: given a network of kind `N` and a
/// minimum cohesion threshold `α`, produce every non-empty maximal pattern
/// truss (Definition 3.7).
///
/// The TCS and TCFA baselines take the paper's vertex database networks
/// only; TCFI takes any [`crate::ThemeSource`], edge database networks (§8)
/// included.
pub trait Miner<N: ?Sized = DatabaseNetwork> {
    /// Short display name ("TCS", "TCFA", "TCFI").
    fn name(&self) -> &'static str;

    /// Mines all maximal pattern trusses of `network` at threshold `alpha`.
    fn mine(&self, network: &N, alpha: f64) -> MiningResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TcfaMiner, TcfiMiner, TcsMiner};

    #[test]
    fn names() {
        // Through `dyn Miner`: TCFI mines any `ThemeSource`, so on the bare
        // type `name()` would not know which network kind is meant.
        let name = |miner: &dyn Miner| miner.name();
        assert_eq!(name(&TcsMiner::default()), "TCS");
        assert_eq!(name(&TcfaMiner::default()), "TCFA");
        assert_eq!(name(&TcfiMiner::default()), "TCFI");
    }

    #[test]
    fn trait_objects_usable() {
        let miners: Vec<Box<dyn Miner>> = vec![
            Box::new(TcsMiner::default()),
            Box::new(TcfaMiner::default()),
            Box::new(TcfiMiner::default()),
        ];
        let mut b = crate::DatabaseNetworkBuilder::new();
        let x = b.intern_item("x");
        for v in 0..3u32 {
            b.add_transaction(v, &[x]);
        }
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        let net = b.build().unwrap();
        for m in &miners {
            let r = m.mine(&net, 0.5);
            assert_eq!(r.np(), 1, "{} finds the single truss", m.name());
        }
    }
}
