//! The modulo reservation table (MRT).
//!
//! A modulo schedule issues one loop iteration every `II` cycles, so a
//! resource used at cycle `t` is used at `t mod II` in every kernel
//! repetition. The MRT records, for each resource class, which
//! `(unit, row)` slots are taken.
//!
//! Unpipelined operations (divide, square root) occupy a unit for longer
//! than one cycle — possibly longer than `II` itself. In steady state
//! consecutive iterations then bind *different* physical units, so an
//! operation of occupancy `o` reserves `⌊o / II⌋` whole unit columns plus
//! a run of `o mod II` rows on one more unit. This matches the capacity
//! argument behind `ResMII` exactly.

use widening_ir::ResourceClass;

use crate::dense::words;

/// Where an operation landed in the MRT; returned for introspection and
/// needed to release the reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Resource class the slots belong to.
    pub class: ResourceClass,
    /// Units fully reserved (occupancy wrapped whole `II` windows).
    pub full_units: Vec<u32>,
    /// Unit holding the partial run, with its starting row and length,
    /// if the occupancy was not an exact multiple of `II`.
    pub partial: Option<(u32, u32, u32)>,
}

/// A two-class modulo reservation table.
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: u32,
    grids: [Grid; 2],
}

#[derive(Debug, Clone, Default)]
struct Grid {
    units: u32,
    rows: u32,
    /// Words per unit in `busy`.
    wpu: usize,
    /// `cells[unit * rows + row]` = occupying node id + 1, or 0 if free.
    /// Carries occupant identity for `conflicts` and release checking.
    cells: Vec<u32>,
    /// Per-unit occupancy bitmap (`wpu` words each, bit = row taken);
    /// the word-at-a-time mirror of `cells` that emptiness and free-run
    /// probes read.
    busy: Vec<u64>,
}

const FREE: u32 = 0;

impl Grid {
    fn new(units: u32, rows: u32) -> Self {
        let mut g = Grid::default();
        g.reset(units, rows);
        g
    }

    /// Clear and resize in place, keeping capacity.
    fn reset(&mut self, units: u32, rows: u32) {
        self.units = units;
        self.rows = rows;
        self.wpu = words::words_for(rows as usize);
        self.cells.clear();
        self.cells.resize((units * rows) as usize, FREE);
        self.busy.clear();
        self.busy.resize(units as usize * self.wpu, 0);
    }

    fn cell(&self, unit: u32, row: u32) -> u32 {
        self.cells[(unit * self.rows + row) as usize]
    }

    fn cell_mut(&mut self, unit: u32, row: u32) -> &mut u32 {
        &mut self.cells[(unit * self.rows + row) as usize]
    }

    fn unit_words(&self, unit: u32) -> &[u64] {
        let u = unit as usize;
        &self.busy[u * self.wpu..(u + 1) * self.wpu]
    }

    fn unit_words_mut(&mut self, unit: u32) -> &mut [u64] {
        let u = unit as usize;
        &mut self.busy[u * self.wpu..(u + 1) * self.wpu]
    }

    fn unit_is_empty(&self, unit: u32) -> bool {
        self.unit_words(unit).iter().all(|&w| w == 0)
    }

    fn run_is_free(&self, unit: u32, start_row: u32, len: u32) -> bool {
        words::wrapped_run_is_clear(
            self.unit_words(unit),
            self.rows as usize,
            start_row as usize,
            len as usize,
        )
    }

    /// Mark the wrapped run `[start_row, start_row + len)` of `unit` as
    /// taken by `tag` (both the cell tags and the busy bitmap).
    fn claim_run(&mut self, unit: u32, start_row: u32, len: u32, tag: u32) {
        for i in 0..len {
            let r = (start_row + i) % self.rows;
            *self.cell_mut(unit, r) = tag;
        }
        let rows = self.rows as usize;
        words::set_wrapped_run(
            self.unit_words_mut(unit),
            rows,
            start_row as usize,
            len as usize,
        );
    }

    /// Release the wrapped run `[start_row, start_row + len)` of `unit`.
    fn release_run(&mut self, unit: u32, start_row: u32, len: u32, tag: u32, node: u32) {
        for i in 0..len {
            let r = (start_row + i) % self.rows;
            let c = self.cell_mut(unit, r);
            debug_assert_eq!(*c, tag, "releasing a slot not owned by node {node}");
            *c = FREE;
        }
        let rows = self.rows as usize;
        let (start, run) = (start_row as usize, len as usize);
        if start + run <= rows {
            words::clear_run(self.unit_words_mut(unit), start, run);
        } else {
            let head = rows - start;
            words::clear_run(self.unit_words_mut(unit), start, head);
            words::clear_run(self.unit_words_mut(unit), 0, run - head);
        }
    }
}

fn class_index(class: ResourceClass) -> usize {
    match class {
        ResourceClass::Bus => 0,
        ResourceClass::Fpu => 1,
    }
}

impl Mrt {
    /// Creates an empty table for an `II`-cycle kernel with the given
    /// unit counts.
    ///
    /// # Panics
    ///
    /// Panics if `ii` or either unit count is zero.
    #[must_use]
    pub fn new(ii: u32, bus_units: u32, fpu_units: u32) -> Self {
        assert!(ii >= 1, "II must be at least 1");
        assert!(
            bus_units >= 1 && fpu_units >= 1,
            "unit counts must be at least 1"
        );
        Mrt {
            ii,
            grids: [Grid::new(bus_units, ii), Grid::new(fpu_units, ii)],
        }
    }

    /// Empties the table and re-sizes it for a new `II` / unit counts,
    /// reusing the existing buffers. Semantically identical to
    /// `*self = Mrt::new(ii, bus_units, fpu_units)` but allocation-free
    /// once the buffers have grown to their steady-state size — this is
    /// what lets the scheduler retry successive II values without
    /// touching the heap.
    ///
    /// # Panics
    ///
    /// Panics if `ii` or either unit count is zero.
    pub fn reset(&mut self, ii: u32, bus_units: u32, fpu_units: u32) {
        assert!(ii >= 1, "II must be at least 1");
        assert!(
            bus_units >= 1 && fpu_units >= 1,
            "unit counts must be at least 1"
        );
        self.ii = ii;
        self.grids[0].reset(bus_units, ii);
        self.grids[1].reset(fpu_units, ii);
    }

    /// The initiation interval this table models.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Row for an (possibly negative) issue cycle.
    #[must_use]
    pub fn row_of(&self, time: i64) -> u32 {
        time.rem_euclid(i64::from(self.ii)) as u32
    }

    /// Attempts to reserve slots for `node` (class `class`, occupancy
    /// `occupancy` cycles) issuing at cycle `time`. On success the
    /// reservation is recorded and its [`Placement`] returned.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is zero.
    pub fn try_place(
        &mut self,
        node: u32,
        class: ResourceClass,
        time: i64,
        occupancy: u32,
    ) -> Option<Placement> {
        assert!(occupancy >= 1, "occupancy must be at least 1");
        let row = self.row_of(time);
        let ii = self.ii;
        let grid = &mut self.grids[class_index(class)];
        let full_needed = occupancy / ii;
        let partial_len = occupancy % ii;

        let mut full_units = Vec::with_capacity(full_needed as usize);
        let mut partial_unit = None;
        for u in 0..grid.units {
            if (full_units.len() as u32) < full_needed && grid.unit_is_empty(u) {
                full_units.push(u);
                continue;
            }
            if partial_len > 0 && partial_unit.is_none() && grid.run_is_free(u, row, partial_len) {
                partial_unit = Some(u);
            }
        }
        if (full_units.len() as u32) < full_needed || (partial_len > 0 && partial_unit.is_none()) {
            return None;
        }
        let tag = node + 1;
        for &u in &full_units {
            grid.claim_run(u, 0, grid.rows, tag);
        }
        let partial = partial_unit.map(|u| {
            grid.claim_run(u, row, partial_len, tag);
            (u, row, partial_len)
        });
        Some(Placement {
            class,
            full_units,
            partial,
        })
    }

    /// Node ids whose reservations overlap the slots that placing an
    /// operation (`class`, issue `time`, `occupancy`) would need. Used by
    /// the IMS backtracker to decide whom to evict. The result is
    /// deduplicated and sorted.
    #[must_use]
    pub fn conflicts(&self, class: ResourceClass, time: i64, occupancy: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.conflicts_into(class, time, occupancy, &mut out);
        out
    }

    /// [`Mrt::conflicts`] into a caller-supplied buffer (cleared first),
    /// so the IMS eviction loop can reuse one allocation across every
    /// probe of an II attempt.
    pub fn conflicts_into(
        &self,
        class: ResourceClass,
        time: i64,
        occupancy: u32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let row = self.row_of(time);
        let grid = &self.grids[class_index(class)];
        let ii = self.ii;
        let full_needed = occupancy / ii;
        let partial_len = occupancy % ii;
        // Everything is a candidate obstacle; report occupants of the
        // least-occupied slots the op would contend for. Conservative and
        // simple: collect occupants of the partial window on every unit
        // plus, if whole columns are needed, occupants of the emptiest
        // columns.
        if partial_len > 0 {
            for u in 0..grid.units {
                for i in 0..partial_len {
                    let c = grid.cell(u, (row + i) % grid.rows);
                    if c != FREE {
                        out.push(c - 1);
                    }
                }
            }
        }
        if full_needed > 0 {
            for u in 0..grid.units {
                for r in 0..grid.rows {
                    let c = grid.cell(u, r);
                    if c != FREE {
                        out.push(c - 1);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Releases a reservation made by [`Mrt::try_place`].
    pub fn remove(&mut self, node: u32, placement: &Placement) {
        let tag = node + 1;
        let grid = &mut self.grids[class_index(placement.class)];
        for &u in &placement.full_units {
            grid.release_run(u, 0, grid.rows, tag, node);
        }
        if let Some((u, row, len)) = placement.partial {
            grid.release_run(u, row, len, tag, node);
        }
    }

    /// Number of occupied slots in a class (for utilization statistics).
    #[must_use]
    pub fn occupied_slots(&self, class: ResourceClass) -> u32 {
        self.grids[class_index(class)]
            .cells
            .iter()
            .filter(|&&c| c != FREE)
            .count() as u32
    }

    /// Total slots in a class: `units × II`.
    #[must_use]
    pub fn total_slots(&self, class: ResourceClass) -> u32 {
        let g = &self.grids[class_index(class)];
        g.units * g.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_placement_and_capacity() {
        let mut mrt = Mrt::new(2, 1, 2);
        // 1 bus × II=2 → two load slots, then full.
        assert!(mrt.try_place(0, ResourceClass::Bus, 0, 1).is_some());
        assert!(mrt.try_place(1, ResourceClass::Bus, 1, 1).is_some());
        assert!(mrt.try_place(2, ResourceClass::Bus, 2, 1).is_none()); // row 0 again
        assert_eq!(mrt.occupied_slots(ResourceClass::Bus), 2);
        assert_eq!(mrt.total_slots(ResourceClass::Bus), 2);
    }

    #[test]
    fn negative_times_map_to_rows() {
        let mrt = Mrt::new(4, 1, 2);
        assert_eq!(mrt.row_of(-1), 3);
        assert_eq!(mrt.row_of(-4), 0);
        assert_eq!(mrt.row_of(7), 3);
    }

    #[test]
    fn unpipelined_wrapping_occupies_whole_columns() {
        // occupancy 5 at II=2 on 3 FPUs: 2 whole columns + run of 1.
        let mut mrt = Mrt::new(2, 1, 3);
        let p = mrt.try_place(7, ResourceClass::Fpu, 0, 5).unwrap();
        assert_eq!(p.full_units.len(), 2);
        let (_, row, len) = p.partial.unwrap();
        assert_eq!((row, len), (0, 1));
        assert_eq!(mrt.occupied_slots(ResourceClass::Fpu), 5);
        // Only one free FPU slot left (unit 2, row 1).
        assert!(mrt.try_place(8, ResourceClass::Fpu, 1, 1).is_some());
        assert!(mrt.try_place(9, ResourceClass::Fpu, 0, 1).is_none());
    }

    #[test]
    fn occupancy_equal_to_ii_takes_exactly_one_column() {
        let mut mrt = Mrt::new(4, 1, 2);
        let p = mrt.try_place(0, ResourceClass::Fpu, 3, 4).unwrap();
        assert_eq!(p.full_units, vec![0]);
        assert!(p.partial.is_none());
        // The second column still has all four rows.
        for t in 0..4 {
            assert!(mrt
                .try_place(10 + t, ResourceClass::Fpu, i64::from(t), 1)
                .is_some());
        }
    }

    #[test]
    fn partial_run_wraps_around() {
        let mut mrt = Mrt::new(4, 1, 1);
        // Run of 3 starting at row 3 wraps to rows {3,0,1}.
        assert!(mrt.try_place(0, ResourceClass::Fpu, 3, 3).is_some());
        assert!(mrt.try_place(1, ResourceClass::Fpu, 2, 1).is_some()); // row 2 free
        assert!(mrt.try_place(2, ResourceClass::Fpu, 0, 1).is_none()); // row 0 taken
    }

    #[test]
    fn remove_restores_slots() {
        let mut mrt = Mrt::new(3, 2, 2);
        let p = mrt.try_place(5, ResourceClass::Bus, 1, 1).unwrap();
        assert_eq!(mrt.occupied_slots(ResourceClass::Bus), 1);
        mrt.remove(5, &p);
        assert_eq!(mrt.occupied_slots(ResourceClass::Bus), 0);
        assert!(mrt.try_place(6, ResourceClass::Bus, 1, 1).is_some());
    }

    #[test]
    fn conflicts_lists_blockers() {
        let mut mrt = Mrt::new(2, 1, 2);
        mrt.try_place(3, ResourceClass::Bus, 0, 1).unwrap();
        mrt.try_place(4, ResourceClass::Bus, 1, 1).unwrap();
        assert_eq!(mrt.conflicts(ResourceClass::Bus, 0, 1), vec![3]);
        assert_eq!(mrt.conflicts(ResourceClass::Bus, 1, 1), vec![4]);
        assert!(mrt.conflicts(ResourceClass::Fpu, 0, 1).is_empty());
    }

    #[test]
    fn reset_behaves_like_new() {
        let mut mrt = Mrt::new(7, 2, 3);
        mrt.try_place(0, ResourceClass::Fpu, 3, 9).unwrap();
        mrt.reset(2, 1, 3);
        assert_eq!(mrt.ii(), 2);
        assert_eq!(mrt.occupied_slots(ResourceClass::Fpu), 0);
        // Identical behavior to a fresh table (cf.
        // unpipelined_wrapping_occupies_whole_columns).
        let p = mrt.try_place(7, ResourceClass::Fpu, 0, 5).unwrap();
        assert_eq!(p.full_units.len(), 2);
        assert_eq!(p.partial.unwrap().2, 1);
        assert!(mrt.try_place(8, ResourceClass::Fpu, 1, 1).is_some());
        assert!(mrt.try_place(9, ResourceClass::Fpu, 0, 1).is_none());
    }

    #[test]
    fn busy_bitmap_mirrors_cells_across_place_and_remove() {
        // Wrapping partial runs + full columns + release must keep the
        // word bitmap and the cell tags coherent.
        let mut mrt = Mrt::new(5, 1, 2);
        let p = mrt.try_place(1, ResourceClass::Fpu, 4, 8).unwrap(); // 1 column + run of 3 @ row 4
        let q = mrt.try_place(2, ResourceClass::Bus, 2, 2).unwrap();
        for g in &mrt.grids {
            for u in 0..g.units {
                for r in 0..g.rows {
                    assert_eq!(
                        g.cell(u, r) != FREE,
                        words::get(g.unit_words(u), r as usize),
                        "unit {u} row {r}"
                    );
                }
            }
        }
        mrt.remove(1, &p);
        mrt.remove(2, &q);
        assert!(mrt.grids.iter().all(|g| g.busy.iter().all(|&w| w == 0)));
        assert!(mrt.grids.iter().all(|g| g.cells.iter().all(|&c| c == FREE)));
    }

    #[test]
    #[should_panic(expected = "II must be at least 1")]
    fn zero_ii_panics() {
        let _ = Mrt::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "occupancy must be at least 1")]
    fn zero_occupancy_panics() {
        let mut mrt = Mrt::new(1, 1, 1);
        let _ = mrt.try_place(0, ResourceClass::Bus, 0, 0);
    }
}
