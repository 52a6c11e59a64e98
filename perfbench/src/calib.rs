//! Host-speed probe: a fixed computation in the benchmark's own code,
//! timed between passes, so that a run's host times can be referred to
//! one host speed.
//!
//! The benchmark runs on shared virtual machines whose CPU speed moves in
//! regimes: the same pass took twice as long in one half hour as in the
//! next, with no steal time and with CPU time tracking wall time. Runs
//! minutes apart then disagree by far more than any change to the program
//! would move them. The probe is a small discrete-event cache simulation
//! (a binary-heap event queue, an 8-way set-associative tag array with
//! LRU, an open-addressing table and a memory array written at random),
//! so it leans on the host the way the simulator does. It calls nothing
//! in the program, so a change to the program does not move it.
//!
//! A sample runs it twice, with a 128 KiB memory array that stays in L2
//! and with an 8 MiB one that does not, and takes the geometric mean of
//! the two speeds. Either alone followed the workloads worse when
//! neighbours loaded the host: the 8 MiB probe slowed two to three times
//! as much as tenants did, the L2 one less than fig4-warm did. Its tag
//! array and table stay small (128 KiB each): at 512 KiB each, how the
//! fresh pages of a sample happened to fall in the 2 MiB L2 moved one
//! sample from the next by twice as much.
//!
//! The probe is sampled before the first set-up or pass and after each,
//! outside their timing, for a few percent of the time just measured. A
//! run's times are scaled by the median sample relative to
//! [`REF_STEPS_PER_S`]: the result is the time the work would take on a
//! host that runs the probe at that rate. One factor per run rather than
//! one per pass, because single samples also jitter from one tenth of a
//! second to the next, which a sample beside a pass would carry into that
//! pass's figure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

/// Probe speed the normalised times refer to, in probe steps per host
/// second: a round figure near what a 2-vCPU Intel Xeon VM gives.
pub const REF_STEPS_PER_S: f64 = 6e6;
/// Steps per probe chunk: a sample runs two, about 0.2 s together on
/// that host.
const CHUNK_STEPS: u64 = 500_000;
/// Least share of the timed work spent sampling right after it.
const SAMPLE_SHARE: f64 = 0.03;

const SETS: usize = 1 << 10;
const WAYS: usize = 8;
/// Memory array sizes in words: one inside L2, one well past it.
const L2_WORDS: usize = 1 << 14;
const FAR_WORDS: usize = 1 << 20;
const TABLE_SLOTS: usize = 1 << 14;
const STREAMS: u32 = 256;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Zeroed words mapped straight from the kernel and unmapped on drop, so
/// the probe leaves the allocator as it found it. Through `malloc`, the
/// free of a block this size raises glibc's mmap threshold, and the
/// program's own large blocks then stay resident on the heap: that added
/// 7.5 MiB to tenants' `peak_rss_mib`.
#[cfg(target_os = "linux")]
struct Region {
    ptr: *mut u64,
    words: usize,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long, c_void};
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
    pub const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    pub const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
}

#[cfg(target_os = "linux")]
impl Region {
    fn new(words: usize) -> Self {
        let len = words * 8;
        // SAFETY: an anonymous private mapping of `len` bytes; no existing
        // memory is touched. A failed map returns MAP_FAILED (-1).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ_WRITE,
                sys::MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(ptr as isize != -1, "probe: mmap of {len} bytes failed");
        Region {
            ptr: ptr.cast(),
            words,
        }
    }

    fn words(&mut self) -> &mut [u64] {
        // SAFETY: the mapping is `words` zero-filled, writable, page-aligned
        // u64s owned by this Region until drop.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.words) }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` made; no slice of it
        // outlives the Region.
        unsafe {
            sys::munmap(self.ptr.cast(), self.words * 8);
        }
    }
}

#[cfg(not(target_os = "linux"))]
struct Region(Vec<u64>);

#[cfg(not(target_os = "linux"))]
impl Region {
    fn new(words: usize) -> Self {
        Region(vec![0; words])
    }

    fn words(&mut self) -> &mut [u64] {
        &mut self.0
    }
}

/// Runs `steps` steps of the probe simulation, with a memory array of
/// `MEM_WORDS` words, from a fixed initial state and returns a checksum,
/// so nothing can be optimised away.
fn simulate<const MEM_WORDS: usize>(steps: u64) -> u64 {
    let mut region = Region::new(2 * SETS * WAYS + MEM_WORDS + TABLE_SLOTS);
    let (tags, rest) = region.words().split_at_mut(SETS * WAYS);
    let (stamps, rest) = rest.split_at_mut(SETS * WAYS);
    let (mem, table) = rest.split_at_mut(MEM_WORDS);
    // Tags are stored complemented, so a fresh (zero) way holds tag
    // u64::MAX, which no line has.
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..STREAMS)
        .map(|s| Reverse((u64::from(s), s)))
        .collect();
    let mut cursor: Vec<u64> = (0..u64::from(STREAMS)).map(|s| s << 24).collect();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut clock = 0u32;
    let mut sum = 0u64;
    for _ in 0..steps {
        let Some(Reverse((t, s))) = queue.pop() else {
            break;
        };
        let r = xorshift(&mut rng);
        let c = &mut cursor[s as usize];
        // Three in four accesses walk the stream's own region; the rest
        // jump anywhere.
        *c = if r & 3 == 0 { r >> 16 } else { *c + 8 + (r >> 60) * 64 };
        let line = *c >> 6;
        let set = (line as usize) & (SETS - 1);
        let tag = line >> 12;
        let ways = set * WAYS..(set + 1) * WAYS;
        clock = clock.wrapping_add(1);
        let latency = match tags[ways.clone()].iter().position(|&x| x == !tag) {
            Some(w) => {
                stamps[set * WAYS + w] = u64::from(clock);
                4
            }
            None => {
                let victim = ways
                    .clone()
                    .min_by_key(|&i| stamps[i])
                    .unwrap_or(set * WAYS);
                tags[victim] = !tag;
                stamps[victim] = u64::from(clock);
                let word = &mut mem[(line as usize).wrapping_mul(0x9E37) & (MEM_WORDS - 1)];
                *word = word.wrapping_add(line);
                // Translate through the table: linear probing on the page.
                let page = line >> 6;
                let mut slot = (page.wrapping_mul(0x9E37_79B9) as usize) & (TABLE_SLOTS - 1);
                while table[slot] != 0 && table[slot] != page + 1 {
                    slot = (slot + 1) & (TABLE_SLOTS - 1);
                }
                if table[slot] == 0 && (r >> 8) & 1 == 0 {
                    table[slot] = page + 1;
                }
                100 + (*word & 15)
            }
        };
        sum = sum.wrapping_add(latency ^ line);
        queue.push(Reverse((t + latency, s)));
        if clock as usize % (TABLE_SLOTS / 4) == 0 {
            // At most one insert per step: the table stays a quarter full.
            table.iter_mut().for_each(|x| *x = 0);
        }
    }
    sum
}

/// Measures the host's speed now, in probe steps per second (the
/// geometric mean of the two memory sizes' speeds), and the seconds that
/// took. An untimed fifth of a chunk runs first, so the sample starts on
/// a warm core rather than straight out of idle.
fn steps_per_s() -> (f64, f64) {
    std::hint::black_box(simulate::<FAR_WORDS>(std::hint::black_box(CHUNK_STEPS / 5)));
    let t = Instant::now();
    std::hint::black_box(simulate::<L2_WORDS>(std::hint::black_box(CHUNK_STEPS)));
    let near = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(simulate::<FAR_WORDS>(std::hint::black_box(CHUNK_STEPS)));
    let far = t.elapsed().as_secs_f64();
    (CHUNK_STEPS as f64 / (near * far).sqrt(), near + far)
}

/// The run's speed samples, in probe steps per second.
static SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Samples the host's speed right after `work_s` seconds of timed work:
/// for at least [`SAMPLE_SHARE`] of that time, and at least once. The
/// run's samples then cover its timed work in proportion to its length.
pub fn sample(work_s: f64) {
    let mut spent = 0.0;
    let mut taken = Vec::new();
    while taken.is_empty() || spent < SAMPLE_SHARE * work_s {
        let (speed, s) = steps_per_s();
        taken.push(speed);
        spent += s;
    }
    SAMPLES
        .lock()
        .expect("speed samples poisoned")
        .extend(taken);
}

/// Number of speed samples taken so far.
pub fn samples() -> usize {
    SAMPLES.lock().expect("speed samples poisoned").len()
}

/// The run's host speed factor: the median of its samples relative to
/// [`REF_STEPS_PER_S`], taking one sample first if there is none. A host
/// time multiplied by it is the time at the reference speed.
pub fn run_factor() -> f64 {
    if samples() == 0 {
        sample(0.0);
    }
    median(&SAMPLES.lock().expect("speed samples poisoned")) / REF_STEPS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic() {
        assert_eq!(simulate::<FAR_WORDS>(10_000), simulate::<FAR_WORDS>(10_000));
        assert_ne!(simulate::<FAR_WORDS>(10_000), simulate::<FAR_WORDS>(10_001));
        assert_ne!(simulate::<L2_WORDS>(10_000), simulate::<FAR_WORDS>(10_000));
    }
}
