//! panic-path fixture: a zone answered on the serving thread, reached
//! from `serve_conn` only through `dyn Transport`.

pub trait Transport {
    fn atomic(&self, req: &[u8]) -> Vec<u8>;
}

pub struct LocalTransport {
    stores: Vec<Vec<u8>>,
}

impl Transport for LocalTransport {
    fn atomic(&self, req: &[u8]) -> Vec<u8> {
        // flagged: the trait object's call is an edge to every `atomic`
        self.stores.get(req.len()).cloned().expect("a zone per length")
    }
}
