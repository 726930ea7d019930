//! A lookup whose reply cannot fit one frame is refused at the server's
//! door: one `BadRequest`, sent before anything is queued, and the
//! connection keeps serving. Computed and sent, such a reply is refused
//! by the client's frame reader (`TooLarge`), which costs the client its
//! connection.

use secemb::GeneratorSpec;
use secemb_serve::protocol::{reply_fits, ServerMsg};
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
fn a_reply_past_the_frame_cap_is_refused_and_the_connection_served_on() {
    assert!(reply_fits(255, WIDE) && !reply_fits(256, WIDE));
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        GeneratorSpec::Scan { rows: 4, dim: WIDE },
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let over = client.generate(0, &[1; 256], None);
    assert_eq!(rejection(over), RejectReason::BadRequest);
    // Parts add up: two halves of the same table are one reply.
    let halves = [(0, vec![1; 128]), (0, vec![2; 128])];
    let over = client.generate_multi(&halves, None);
    assert_eq!(rejection(over), RejectReason::BadRequest);

    // Same connection, next request: served.
    match client.generate(0, &[1, 2], None).expect("served") {
        ServerMsg::Embeddings(m, _) => assert_eq!(m.shape(), (2, WIDE)),
        other => panic!("expected embeddings, got {other:?}"),
    }
    // The refused frames never reached the engine.
    let stats = engine.stats().snapshot();
    assert_eq!((stats.accepted, stats.completed), (1, 1));
    assert!(stats.rejected.iter().all(|&(_, n)| n == 0));
    server.shutdown();
}
