//! panic-path fixture: panic sites two calls deep from `serve_conn`, one
//! of them behind a trait object.

use netdir_server::Transport;

pub fn serve_conn(req: &[u8], transport: &dyn Transport) -> Vec<u8> {
    let mut out = decode(req);
    out.extend(transport.atomic(req));
    out
}

fn decode(req: &[u8]) -> Vec<u8> {
    let first = req.first().unwrap(); // flagged: reachable from serve_conn
    if *first == 0 {
        panic!("bad frame"); // flagged
    }
    vec![*first]
}

pub fn offline_tool(req: &[u8]) -> u8 {
    // Not reachable from serve_conn: not flagged.
    *req.last().expect("tool input")
}
