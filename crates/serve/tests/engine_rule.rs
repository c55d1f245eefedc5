//! The service resolves its engine with the session's one rule,
//! [`MonitorBuilder::resolved_engine`]: every accepted `(engine, chaos)`
//! pair runs the same engine on a [`TopkService`](topk_serve::TopkService)
//! as on a single session, and the one rejected pair — chaos on an explicit
//! [`Engine::Sequential`] — fails at `build`, with the session builder's
//! message. Shard sessions are only built by the first `advance`.

use topk_core::session::{Engine, MonitorBuilder};
use topk_net::chaos::ChaosPolicy;
use topk_net::id::NodeId;
use topk_serve::ServeBuilder;

#[test]
fn service_engine_matches_session_engine_for_every_accepted_pair() {
    use Engine::*;
    let p = Some(ChaosPolicy::from_seed(3));
    let table = [
        (Auto, None, Sequential),
        (Auto, p, Socket),
        (Sequential, None, Sequential),
        (Socket, None, Socket),
        (Socket, p, Socket),
    ];
    for (engine, chaos, want) in table {
        let mut session = MonitorBuilder::new(16, 2).seed(5).engine(engine);
        let mut service = ServeBuilder::new(16, 2).shards(2).seed(5).engine(engine);
        if let Some(policy) = chaos {
            session = session.chaos(policy);
            service = service.chaos(policy);
        }
        let mut svc = service.build();
        assert_eq!(session.build().engine(), want, "{engine:?} {chaos:?}");
        assert_eq!(svc.engine(), want, "{engine:?} {chaos:?}");
        // The first step builds every shard session and commits.
        svc.update_row(&(0..16).map(|v| v * 10).collect::<Vec<_>>());
        svc.advance(0);
        assert_eq!(svc.topk(), &[NodeId(14), NodeId(15)]);
    }
}

#[test]
#[should_panic(expected = "invalid monitor configuration")]
fn chaos_on_explicit_sequential_panics_at_build() {
    let _ = ServeBuilder::new(16, 2)
        .shards(2)
        .engine(Engine::Sequential)
        .chaos(ChaosPolicy::from_seed(3))
        .build();
}
