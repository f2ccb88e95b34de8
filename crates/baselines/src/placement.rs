//! Traffic-agnostic initial placements.
//!
//! "DCs are built to support a large number of VMs that are initially
//! allocated either at random or in a load-balanced manner" (paper §III).
//! Every experiment starts from a random one; the densely-packed
//! placement seeds the GA's initial population.

use rand::Rng;
use score_core::Allocation;
use score_topology::ServerId;

/// Uniform-random placement honouring a per-server slot limit.
///
/// # Panics
///
/// Panics if the total slot capacity cannot hold all VMs.
pub fn random_placement<R: Rng + ?Sized>(
    num_vms: u32,
    num_servers: u32,
    slots_per_server: u32,
    rng: &mut R,
) -> Allocation {
    assert!(
        (num_servers as u64) * (slots_per_server as u64) >= num_vms as u64,
        "not enough slots: {num_servers} servers x {slots_per_server} < {num_vms} VMs"
    );
    let mut occupancy = vec![0u32; num_servers as usize];
    Allocation::from_fn(num_vms, num_servers, |_| loop {
        let s = rng.gen_range(0..num_servers);
        if occupancy[s as usize] < slots_per_server {
            occupancy[s as usize] += 1;
            return ServerId::new(s);
        }
    })
}

/// Randomly packed placement: servers fill to their slot limit in id
/// order (first-fit) with the VM order shuffled, giving a *random*
/// densely-packed individual (the GA's initial population of
/// "densely-packed VM distributions", §VI-A).
pub fn shuffled_packed_placement<R: Rng + ?Sized>(
    num_vms: u32,
    num_servers: u32,
    slots_per_server: u32,
    rng: &mut R,
) -> Allocation {
    assert!(
        (num_servers as u64) * (slots_per_server as u64) >= num_vms as u64,
        "not enough slots"
    );
    let mut vms: Vec<u32> = (0..num_vms).collect();
    // Fisher-Yates shuffle.
    for i in (1..vms.len()).rev() {
        let j = rng.gen_range(0..=i);
        vms.swap(i, j);
    }
    let mut assignment = vec![ServerId::new(0); num_vms as usize];
    for (pos, &vm) in vms.iter().enumerate() {
        assignment[vm as usize] = ServerId::new(pos as u32 / slots_per_server);
    }
    Allocation::from_vec(assignment, num_servers)
}

/// Checks a placement against a uniform slot limit.
pub fn respects_slots(alloc: &Allocation, slots_per_server: u32) -> bool {
    (0..alloc.num_servers()).all(|s| alloc.occupancy(ServerId::new(s)) <= slots_per_server as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_respects_capacity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_placement(64, 8, 8, &mut rng);
        assert_eq!(a.num_vms(), 64);
        assert!(respects_slots(&a, 8));
        assert!(a.is_consistent());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = random_placement(32, 8, 8, &mut StdRng::seed_from_u64(7));
        let b = random_placement(32, 8, 8, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not enough slots")]
    fn random_rejects_overfull() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = random_placement(65, 8, 8, &mut rng);
    }

    #[test]
    fn shuffled_packed_is_packed_but_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = shuffled_packed_placement(10, 4, 4, &mut rng);
        assert!(respects_slots(&a, 4));
        // Same density profile as packed: 4, 4, 2 VMs over 3 servers.
        let mut occ: Vec<usize> = (0..4).map(|s| a.occupancy(ServerId::new(s))).collect();
        occ.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(occ, vec![4, 4, 2, 0]);
        // Different VM identities than an unshuffled fill (with
        // overwhelming probability for this seed).
        let in_order = Allocation::from_fn(10, 4, |vm| ServerId::new(vm.get() / 4));
        assert_ne!(a, in_order);
    }
}
