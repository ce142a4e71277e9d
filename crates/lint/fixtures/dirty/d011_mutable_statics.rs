//! D011 dirty fixture: every flavour of global mutable state that sweep
//! workers would share — `static mut`, an interior-mutable static, and
//! a `lazy_static!` global. Each cell's update order would depend on
//! thread scheduling.

static mut COMPLETED: u64 = 0;

static RESULTS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

lazy_static! {
    static ref REGIONS: Vec<String> = Vec::new();
}

pub fn drain() -> usize {
    RESULTS.lock().unwrap().len()
}
