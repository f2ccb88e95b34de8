//! Genetic-algorithm approximation of the optimal allocation (paper §VI-A).
//!
//! "Centrally calculating the optimal VM allocation is computationally
//! infeasible" (the problem is NP-complete, see the paper's appendix and
//! [`crate::reduction`]), so the paper approximates it with a GA:
//!
//! * population of 1000 individuals of "densely-packed VM distributions";
//! * edge-assembly crossover (EAX) — for placement this means offspring
//!   inherit *co-location groups* from both parents;
//! * tournament-based replacement;
//! * mutation "by swapping a random number of VMs between racks";
//! * termination when improvement stays below 1% for 10 consecutive
//!   generations.
//!
//! The paper treats the GA's result as "optimal" for ratio computations;
//! so do we. Fitness evaluation parallelises across a `std::thread::scope`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_core::{Allocation, CostModel};
use score_topology::{ServerId, Topology};
use score_traffic::PairTraffic;
use serde::{Deserialize, Serialize};

use crate::placement::shuffled_packed_placement;

/// GA tunables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Number of individuals (paper: 1000).
    pub population: usize,
    /// Tournament size for parent/replacement selection.
    pub tournament_k: usize,
    /// Individuals copied unchanged into the next generation.
    pub elite: usize,
    /// Upper bound on mutation swap count ("a random number of VMs").
    pub max_mutation_swaps: u32,
    /// Relative improvement threshold for convergence (paper: 1%).
    pub rel_improvement: f64,
    /// Consecutive low-improvement generations before stopping (paper: 10).
    pub patience: usize,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of worker threads for fitness evaluation (1 = serial).
    pub threads: usize,
}

impl GaConfig {
    /// The paper's configuration (population 1000). Expensive — the paper
    /// reports circa 12 hours for a medium-load scenario on 2010s hardware.
    pub fn paper_default() -> Self {
        GaConfig {
            population: 1000,
            tournament_k: 4,
            elite: 4,
            max_mutation_swaps: 8,
            rel_improvement: 0.01,
            patience: 10,
            max_generations: 10_000,
            seed: 0x5_c07e,
            threads: 4,
        }
    }

    /// A reduced configuration for tests and quick experiments.
    pub fn fast() -> Self {
        GaConfig {
            population: 64,
            tournament_k: 3,
            elite: 2,
            max_mutation_swaps: 4,
            rel_improvement: 0.01,
            patience: 8,
            max_generations: 200,
            seed: 0x5_c07e,
            threads: 1,
        }
    }
}

/// Result of a GA run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// Best allocation found.
    pub best: Allocation,
    /// Its Eq.-(2) communication cost.
    pub best_cost: f64,
    /// Generations executed.
    pub generations: usize,
    /// Best cost after each generation.
    pub history: Vec<f64>,
}

/// GA optimiser over VM allocations.
///
/// # Examples
///
/// ```
/// use score_baselines::{GaConfig, GeneticOptimizer};
/// use score_core::CostModel;
/// use score_topology::CanonicalTree;
/// use score_traffic::WorkloadConfig;
///
/// let topo = CanonicalTree::small();
/// let traffic = WorkloadConfig::new(24, 7).generate();
/// let result = GeneticOptimizer::new(
///     &topo,
///     &traffic,
///     CostModel::paper_default(),
///     16,
///     GaConfig::fast(),
/// )
/// .run();
/// assert!(result.best_cost.is_finite());
/// assert!(result.best.is_consistent());
/// ```
pub struct GeneticOptimizer<'a> {
    topo: &'a dyn Topology,
    traffic: &'a PairTraffic,
    model: CostModel,
    slots_per_server: u32,
    config: GaConfig,
}

impl<'a> std::fmt::Debug for GeneticOptimizer<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneticOptimizer")
            .field("topology", &self.topo.name())
            .field("vms", &self.traffic.num_vms())
            .field("config", &self.config)
            .finish()
    }
}

type Genome = Vec<u32>;

impl<'a> GeneticOptimizer<'a> {
    /// Creates an optimiser.
    ///
    /// # Panics
    ///
    /// Panics if the topology cannot hold the VM population or the
    /// configuration is degenerate (empty population, zero tournament).
    pub fn new(
        topo: &'a dyn Topology,
        traffic: &'a PairTraffic,
        model: CostModel,
        slots_per_server: u32,
        config: GaConfig,
    ) -> Self {
        assert!(config.population >= 2, "population must be at least 2");
        assert!(
            config.tournament_k >= 1,
            "tournament size must be at least 1"
        );
        assert!(
            config.elite < config.population,
            "elite must be below population"
        );
        assert!(
            topo.num_servers() as u64 * slots_per_server as u64 >= traffic.num_vms() as u64,
            "topology cannot hold the VM population"
        );
        GeneticOptimizer {
            topo,
            traffic,
            model,
            slots_per_server,
            config,
        }
    }

    fn genome_cost(&self, genome: &Genome) -> f64 {
        let alloc = Allocation::from_fn(
            self.traffic.num_vms(),
            self.topo.num_servers() as u32,
            |vm| ServerId::new(genome[vm.index()]),
        );
        self.model.total_cost(&alloc, self.traffic, self.topo)
    }

    fn evaluate_population(&self, pop: &[Genome]) -> Vec<f64> {
        if self.config.threads <= 1 || pop.len() < 32 {
            return pop.iter().map(|g| self.genome_cost(g)).collect();
        }
        let chunk = pop.len().div_ceil(self.config.threads);
        let mut costs = vec![0.0; pop.len()];
        std::thread::scope(|s| {
            for (slot, genomes) in costs.chunks_mut(chunk).zip(pop.chunks(chunk)) {
                s.spawn(move || {
                    for (c, g) in slot.iter_mut().zip(genomes) {
                        *c = self.genome_cost(g);
                    }
                });
            }
        });
        costs
    }

    /// Repairs slot-capacity violations: overfull servers evict their
    /// latest arrivals, which go to the first servers with room.
    fn repair(&self, genome: &mut Genome) {
        let servers = self.topo.num_servers();
        let mut occupancy = vec![0u32; servers];
        let mut evicted = Vec::new();
        for (vm, &s) in genome.iter().enumerate() {
            if occupancy[s as usize] < self.slots_per_server {
                occupancy[s as usize] += 1;
            } else {
                evicted.push(vm);
            }
        }
        if evicted.is_empty() {
            return;
        }
        let mut cursor = 0usize;
        for vm in evicted {
            while occupancy[cursor] >= self.slots_per_server {
                cursor += 1;
            }
            genome[vm] = cursor as u32;
            occupancy[cursor] += 1;
        }
    }

    /// Edge-assembly-style crossover: the child starts as parent A and
    /// inherits the complete co-location groups of a random set of servers
    /// from parent B, then is repaired to capacity.
    fn crossover(&self, a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
        let servers = self.topo.num_servers() as u32;
        let mut child = a.clone();
        let groups = rng.gen_range(1..=(servers / 4).max(1));
        for _ in 0..groups {
            let s = rng.gen_range(0..servers);
            for (vm, &bs) in b.iter().enumerate() {
                if bs == s {
                    child[vm] = s;
                }
            }
        }
        self.repair(&mut child);
        child
    }

    /// Mutation: swap the servers of a random number of VM pairs
    /// (capacity-preserving by construction).
    fn mutate(&self, genome: &mut Genome, rng: &mut StdRng) {
        let n = genome.len();
        if n < 2 {
            return;
        }
        let swaps = rng.gen_range(1..=self.config.max_mutation_swaps);
        for _ in 0..swaps {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            genome.swap(i, j);
        }
    }

    fn tournament(&self, costs: &[f64], rng: &mut StdRng) -> usize {
        let mut best = rng.gen_range(0..costs.len());
        for _ in 1..self.config.tournament_k {
            let c = rng.gen_range(0..costs.len());
            if costs[c] < costs[best] {
                best = c;
            }
        }
        best
    }

    /// Runs the GA to convergence.
    pub fn run(&self) -> GaResult {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let num_vms = self.traffic.num_vms();
        let servers = self.topo.num_servers() as u32;

        // Initial population of densely-packed distributions (§VI-A).
        let mut pop: Vec<Genome> = (0..self.config.population)
            .map(|_| {
                shuffled_packed_placement(num_vms, servers, self.slots_per_server, &mut rng)
                    .as_slice()
                    .iter()
                    .map(|s| s.get())
                    .collect()
            })
            .collect();
        let mut costs = self.evaluate_population(&pop);

        let mut history = Vec::new();
        let mut best_idx = argmin(&costs);
        let mut best = (pop[best_idx].clone(), costs[best_idx]);
        history.push(best.1);

        let mut stale = 0usize;
        let mut generations = 0usize;
        while generations < self.config.max_generations && stale < self.config.patience {
            generations += 1;
            // Elitism: carry over the best individuals.
            let mut order: Vec<usize> = (0..pop.len()).collect();
            order.sort_by(|&i, &j| costs[i].partial_cmp(&costs[j]).unwrap());
            let mut next: Vec<Genome> = order
                .iter()
                .take(self.config.elite)
                .map(|&i| pop[i].clone())
                .collect();
            while next.len() < self.config.population {
                let pa = self.tournament(&costs, &mut rng);
                let pb = self.tournament(&costs, &mut rng);
                let mut child = self.crossover(&pop[pa], &pop[pb], &mut rng);
                self.mutate(&mut child, &mut rng);
                self.repair(&mut child);
                next.push(child);
            }
            pop = next;
            costs = self.evaluate_population(&pop);

            best_idx = argmin(&costs);
            let gen_best = costs[best_idx];
            let improvement = if best.1 > 0.0 {
                (best.1 - gen_best) / best.1
            } else {
                0.0
            };
            if gen_best < best.1 {
                best = (pop[best_idx].clone(), gen_best);
            }
            history.push(best.1);
            if improvement < self.config.rel_improvement {
                stale += 1;
            } else {
                stale = 0;
            }
        }

        let alloc = Allocation::from_fn(num_vms, servers, |vm| ServerId::new(best.0[vm.index()]));
        GaResult {
            best: alloc,
            best_cost: best.1,
            generations,
            history,
        }
    }
}

fn argmin(costs: &[f64]) -> usize {
    costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .expect("population is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::respects_slots;
    use score_topology::CanonicalTree;
    use score_topology::VmId;
    use score_traffic::{PairTrafficBuilder, WorkloadConfig};

    fn small_world() -> (CanonicalTree, PairTraffic) {
        (
            CanonicalTree::small(),
            WorkloadConfig::new(24, 5).generate(),
        )
    }

    #[test]
    fn ga_result_respects_capacity() {
        let (topo, traffic) = small_world();
        let ga = GeneticOptimizer::new(
            &topo,
            &traffic,
            CostModel::paper_default(),
            4,
            GaConfig::fast(),
        );
        let result = ga.run();
        assert!(respects_slots(&result.best, 4));
        assert!(result.best.is_consistent());
        assert!(result.generations >= 1);
    }

    #[test]
    fn ga_improves_over_random_packing() {
        let (topo, traffic) = small_world();
        let model = CostModel::paper_default();
        let ga = GeneticOptimizer::new(&topo, &traffic, model.clone(), 4, GaConfig::fast());
        let result = ga.run();
        // The GA's best must beat the typical packed individual it started
        // from.
        let mut rng = StdRng::seed_from_u64(99);
        let baseline = shuffled_packed_placement(24, 16, 4, &mut rng);
        let baseline_cost = model.total_cost(&baseline, &traffic, &topo);
        assert!(
            result.best_cost <= baseline_cost,
            "GA {} should beat a random packing {}",
            result.best_cost,
            baseline_cost
        );
        // And its reported cost must match a recomputation.
        let recomputed = model.total_cost(&result.best, &traffic, &topo);
        assert!((recomputed - result.best_cost).abs() < 1e-9);
    }

    #[test]
    fn ga_history_is_monotone_nonincreasing() {
        let (topo, traffic) = small_world();
        let ga = GeneticOptimizer::new(
            &topo,
            &traffic,
            CostModel::paper_default(),
            4,
            GaConfig::fast(),
        );
        let result = ga.run();
        assert!(result.history.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        assert_eq!(result.history.len(), result.generations + 1);
    }

    #[test]
    fn ga_finds_obvious_collocation() {
        // Two heavy 2-VM clusters; the optimum collocates each pair.
        let topo = CanonicalTree::small();
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 1000.0);
        b.add(VmId::new(2), VmId::new(3), 1000.0);
        let traffic = b.build();
        let ga = GeneticOptimizer::new(
            &topo,
            &traffic,
            CostModel::paper_default(),
            4,
            GaConfig::fast(),
        );
        let result = ga.run();
        assert_eq!(result.best_cost, 0.0, "both pairs should be collocated");
    }

    #[test]
    fn parallel_matches_serial_fitness() {
        // Each genome's cost comes from the same function on one thread,
        // so any difference from the serial pass, in any bit, is a bug.
        // Seven threads deal 64 genomes into uneven chunks (10 x 6 + 4).
        let (topo, traffic) = small_world();
        let mut rng = StdRng::seed_from_u64(5);
        let pop: Vec<Genome> = (0..64)
            .map(|_| {
                shuffled_packed_placement(24, 16, 4, &mut rng)
                    .as_slice()
                    .iter()
                    .map(|s| s.get())
                    .collect()
            })
            .collect();
        for threads in [2, 4, 7] {
            let mut cfg = GaConfig::fast();
            cfg.threads = threads;
            cfg.population = 64;
            let ga = GeneticOptimizer::new(&topo, &traffic, CostModel::paper_default(), 4, cfg);
            let bits = |costs: &[f64]| costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            let parallel = ga.evaluate_population(&pop);
            let serial: Vec<f64> = pop.iter().map(|g| ga.genome_cost(g)).collect();
            assert_eq!(bits(&parallel), bits(&serial), "{threads} threads");
        }
    }

    #[test]
    fn repair_fixes_overfull_servers() {
        let (topo, traffic) = small_world();
        let ga = GeneticOptimizer::new(
            &topo,
            &traffic,
            CostModel::paper_default(),
            2,
            GaConfig::fast(),
        );
        let mut genome: Genome = vec![0; 24]; // everything on server 0
        ga.repair(&mut genome);
        let alloc = Allocation::from_fn(24, 16, |vm| ServerId::new(genome[vm.index()]));
        assert!(respects_slots(&alloc, 2));
    }

    #[test]
    fn deterministic_under_seed() {
        let (topo, traffic) = small_world();
        let run = || {
            GeneticOptimizer::new(
                &topo,
                &traffic,
                CostModel::paper_default(),
                4,
                GaConfig::fast(),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.best, b.best);
        assert_eq!(a.generations, b.generations);
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn degenerate_population_rejected() {
        let (topo, traffic) = small_world();
        let mut cfg = GaConfig::fast();
        cfg.population = 1;
        let _ = GeneticOptimizer::new(&topo, &traffic, CostModel::paper_default(), 4, cfg);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn impossible_capacity_rejected() {
        let (topo, traffic) = small_world();
        let _ = GeneticOptimizer::new(&topo, &traffic, CostModel::paper_default(), 1, {
            let mut c = GaConfig::fast();
            c.population = 4;
            c
        });
    }
}
