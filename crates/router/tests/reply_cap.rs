//! A lookup whose reply cannot fit one frame is refused at the router's
//! door: one `BadRequest` that never crosses the wire. Forwarded, the
//! backend computes the reply, the backend link's frame reader refuses it
//! (`TooLarge`), and the link drops — every request in flight on it is
//! answered `Internal` and the link is redialled.

use secemb::GeneratorSpec;
use secemb_router::{Router, RouterConfig};
use secemb_serve::protocol::ServerMsg;
use secemb_serve::{Client, Engine, EngineConfig, RejectReason, Server, TableConfig};
use std::sync::Arc;

/// 16 384 floats a row: 255 rows are the largest reply one frame holds,
/// so a refused request is a 2 KiB frame.
const WIDE: usize = 16_384;

fn rejection(reply: std::io::Result<ServerMsg>) -> RejectReason {
    match reply {
        Ok(ServerMsg::Rejected(reason)) => reason,
        Ok(ServerMsg::Embeddings(m, _)) => panic!("served {:?}", m.shape()),
        other => panic!("expected a rejection, got {other:?}"),
    }
}

#[test]
fn a_reply_past_the_frame_cap_is_refused_without_touching_the_backend_link() {
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![
        TableConfig::new(GeneratorSpec::Scan { rows: 4, dim: WIDE }),
        TableConfig::new(GeneratorSpec::Scan { rows: 4, dim: 8 }),
    ])));
    let backend = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
    let router = Router::start(RouterConfig {
        backends: vec![("b0".into(), backend.addr().to_string())],
        ..RouterConfig::default()
    })
    .expect("router start");
    let mut client = Client::connect(router.addr()).expect("connect");

    assert_eq!(
        rejection(client.generate(0, &[1; 256], None)),
        RejectReason::BadRequest
    );
    // Parts add up at their widest table.
    let parts = [(1, vec![1; 1]), (0, vec![2; 255])];
    assert_eq!(
        rejection(client.generate_multi(&parts, None)),
        RejectReason::BadRequest
    );

    // Same connection, next request: served over the same link.
    match client.generate(0, &[1, 2], None).expect("served") {
        ServerMsg::Embeddings(m, _) => assert_eq!(m.shape(), (2, WIDE)),
        other => panic!("expected embeddings, got {other:?}"),
    }
    let registry = router.registry();
    assert_eq!(registry.counter("router_rejected_local_total").get(), 2);
    assert_eq!(registry.counter("router_failovers_total").get(), 0);
    assert!(router.backend_health().iter().all(|(_, up)| *up));
    // Only the served request reached the backend.
    assert_eq!(engine.stats().snapshot().accepted, 1);
    router.shutdown();
    backend.shutdown();
}
