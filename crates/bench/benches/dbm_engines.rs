//! Criterion bench for the SDBM-vs-GDBM engine ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use pse_bench::workloads::scratch_dir;
use pse_dbm::sdbm::PAIR_MAX;
use pse_dbm::{open_dbm, DbmKind, StoreMode};

fn bench_engines(c: &mut Criterion) {
    let dir = scratch_dir("crit-dbm");
    let mut group = c.benchmark_group("dbm");
    group.sample_size(20);
    for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
        let mut db = open_dbm(kind, &dir.join(format!("bench-{}", kind.name()))).unwrap();
        let value = vec![b'v'; 512];
        for i in 0..500 {
            db.store(format!("key-{i}").as_bytes(), &value, StoreMode::Replace)
                .unwrap();
        }
        let mut n = 0u32;
        group.bench_function(format!("{}_store", kind.name()), |b| {
            b.iter(|| {
                n = (n + 1) % 500;
                db.store(format!("key-{n}").as_bytes(), &value, StoreMode::Replace)
                    .unwrap();
            })
        });
        group.bench_function(format!("{}_fetch", kind.name()), |b| {
            b.iter(|| {
                n = (n + 1) % 500;
                std::hint::black_box(db.fetch(format!("key-{n}").as_bytes()).unwrap());
            })
        });

        // Loading a whole property database, as a property-snapshot miss
        // does: 50 properties of 1 KiB, or as near as SDBM's item limit
        // allows.
        let mut props = open_dbm(kind, &dir.join(format!("scan-{}", kind.name()))).unwrap();
        let prop_len = match kind {
            DbmKind::Sdbm => PAIR_MAX - "prop-00".len(),
            DbmKind::Gdbm => 1024,
        };
        let prop = vec![b'p'; prop_len];
        for i in 0..50 {
            props
                .store(format!("prop-{i:02}").as_bytes(), &prop, StoreMode::Replace)
                .unwrap();
        }
        group.bench_function(format!("{}_scan", kind.name()), |b| {
            b.iter(|| std::hint::black_box(props.scan().unwrap()))
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
