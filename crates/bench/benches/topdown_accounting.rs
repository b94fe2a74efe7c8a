//! Top-down signature generation and the pressure-dilated work split the
//! attribution ledger takes every control interval.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aum_au::topdown::{signature, SignatureKind};
use aum_platform::spec::PlatformSpec;

fn bench(c: &mut Criterion) {
    let spec = PlatformSpec::gen_a();
    c.bench_function("topdown/signature", |b| {
        b.iter(|| signature(black_box(SignatureKind::Decode), &spec))
    });
    let sig = signature(SignatureKind::Decode, &spec);
    c.bench_function("topdown/work_split", |b| {
        b.iter(|| sig.work_split(black_box(1.8), black_box(1.3)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
