//! Criterion microbenches for the HMEE simulator: transition accounting,
//! vault crypto, and the full P-AKA serve path (real time, not virtual).

use criterion::{criterion_group, criterion_main, Criterion};
use shield5g_core::harness::{deploy_module, standard_request, ModuleDeployment};
use shield5g_core::paka::{PakaKind, SgxConfig};
use shield5g_hmee::enclave::EnclaveBuilder;
use shield5g_hmee::platform::SgxPlatform;
use shield5g_sim::Env;
use std::hint::black_box;

fn bench_enclave(c: &mut Criterion) {
    c.bench_function("enclave_ocall_roundtrip", |b| {
        let mut env = Env::new(1);
        let platform = SgxPlatform::new(&mut env);
        let mut enclave = EnclaveBuilder::new("bench")
            .heap_bytes(1 << 20)
            .build(&mut env, &platform)
            .unwrap();
        b.iter(|| enclave.ocall(black_box(&mut env), 64));
    });
    // 32 B is what the P-AKA modules rewrite per request (K_AUSF and
    // friends); 4 KiB fills the page, so nothing of a read is skipped.
    for (name, len) in [
        ("vault_write_read_32B", 32),
        ("vault_write_read_4KiB", 4096),
    ] {
        c.bench_function(name, |b| {
            let mut env = Env::new(2);
            let platform = SgxPlatform::new(&mut env);
            let mut enclave = EnclaveBuilder::new("bench")
                .heap_bytes(1 << 20)
                .build(&mut env, &platform)
                .unwrap();
            let secret = vec![0x5a; len];
            b.iter(|| {
                enclave.vault_write(&mut env, "slot", black_box(&secret));
                black_box(enclave.vault_read(&mut env, "slot").unwrap());
            });
        });
    }
    c.bench_function("paka_serve_container", |b| {
        let (mut env, mut module) = deploy_module(3, PakaKind::EUdm, ModuleDeployment::Container);
        let req = standard_request(PakaKind::EUdm);
        let _ = module.serve(&mut env, req.clone());
        b.iter(|| black_box(module.serve(&mut env, req.clone())));
    });
    c.bench_function("paka_serve_sgx", |b| {
        let (mut env, mut module) = deploy_module(
            4,
            PakaKind::EUdm,
            ModuleDeployment::Sgx(SgxConfig::default()),
        );
        let req = standard_request(PakaKind::EUdm);
        let _ = module.serve(&mut env, req.clone());
        b.iter(|| black_box(module.serve(&mut env, req.clone())));
    });
}

criterion_group!(benches, bench_enclave);
criterion_main!(benches);
