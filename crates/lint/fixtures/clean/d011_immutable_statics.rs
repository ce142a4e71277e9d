//! D011 clean fixture: each sweep cell owns its state outright and
//! results are merged in item order; the only static is an immutable
//! scalar.

static CELL_COUNT: usize = 8;

pub struct CellState {
    pub completed: u64,
    pub results: Vec<u64>,
}

pub fn merge(cells: Vec<CellState>) -> u64 {
    let mut total = 0;
    for cell in cells {
        total += cell.completed;
    }
    total + CELL_COUNT as u64
}
