//! Wire codec for KVS RPCs.
//!
//! A deliberately small, hand-rolled binary format: the broker protocol
//! has four operations and the simulation only needs lengths to be
//! realistic, but encoding/decoding real bytes keeps the substrate honest
//! (payload sizes on the wire match what a real broker would move).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use simcore::intern::{intern, Symbol};

/// Operations understood by the broker.
///
/// Keys are interned [`Symbol`]s: the client interns each key exactly
/// once at the API boundary and every later hop (request struct, broker
/// store, watch table) hashes a 4-byte id instead of re-hashing the
/// full path. The *wire* still carries the resolved string bytes, so
/// message lengths — and therefore fabric costs — are exactly those of
/// the string protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Store `value` under `key`, bumping the global version.
    Commit {
        /// Key to store under.
        key: Symbol,
        /// Value bytes.
        value: Bytes,
    },
    /// Read the current value of `key`, if any.
    Lookup {
        /// Key to read.
        key: Symbol,
    },
    /// Block until `key` exists, then return it (server-side watch).
    WaitKey {
        /// Key to watch.
        key: Symbol,
    },
    /// Remove `key`.
    Unlink {
        /// Key to remove.
        key: Symbol,
    },
    /// Shard-to-shard replication delta (mesh mode only): one write as
    /// observed at `origin`, causally ordered by a per-key version
    /// vector. `value: None` propagates an unlink.
    Delta {
        /// Key the write applies to.
        key: Symbol,
        /// Shard id the write originated on.
        origin: u32,
        /// Per-(key, origin) sequence number of this write.
        seq: u64,
        /// Origin's per-key version vector *before* the write: the
        /// causal parents this delta must not overtake.
        deps: Vec<(u32, u64)>,
        /// New value, or `None` for an unlink tombstone.
        value: Option<Bytes>,
    },
}

/// Broker responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Commit acknowledged at this global version.
    Committed {
        /// Global KVS version after the commit.
        version: u64,
    },
    /// Lookup/wait result.
    Value {
        /// Version at which the key was committed.
        version: u64,
        /// Stored bytes.
        value: Bytes,
    },
    /// Lookup miss.
    NotFound,
    /// Unlink acknowledged.
    Unlinked,
    /// Replication delta received (applied, or buffered until its
    /// causal parents arrive).
    DeltaAck,
    /// The shard serving this broker id has crashed permanently; the
    /// client should fail over to a replica.
    ShardDown,
}

const OP_COMMIT: u8 = 1;
const OP_LOOKUP: u8 = 2;
const OP_WAIT: u8 = 3;
const OP_UNLINK: u8 = 4;
const OP_DELTA: u8 = 5;

const RESP_COMMITTED: u8 = 1;
const RESP_VALUE: u8 = 2;
const RESP_NOT_FOUND: u8 = 3;
const RESP_UNLINKED: u8 = 4;
const RESP_DELTA_ACK: u8 = 5;
const RESP_SHARD_DOWN: u8 = 6;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// Decode a length-prefixed key without allocating: the symbol is
/// interned straight from the wire buffer's bytes.
fn get_sym(buf: &mut Bytes) -> Symbol {
    let len = buf.get_u16() as usize;
    let sym = intern(std::str::from_utf8(&buf[..len]).expect("kvs keys are UTF-8"));
    buf.advance(len);
    sym
}

impl Request {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Request::Commit { key, value } => {
                let key = key.resolve();
                let mut buf = BytesMut::with_capacity(1 + 2 + key.len() + 4 + value.len());
                buf.put_u8(OP_COMMIT);
                put_str(&mut buf, &key);
                buf.put_u32(value.len() as u32);
                buf.put_slice(value);
                buf.freeze()
            }
            Request::Lookup { key } => encode_keyed(OP_LOOKUP, *key),
            Request::WaitKey { key } => encode_keyed(OP_WAIT, *key),
            Request::Unlink { key } => encode_keyed(OP_UNLINK, *key),
            Request::Delta {
                key,
                origin,
                seq,
                deps,
                value,
            } => {
                let key = key.resolve();
                let val_len = value.as_ref().map_or(0, |v| 4 + v.len());
                let mut buf = BytesMut::with_capacity(
                    1 + 2 + key.len() + 4 + 8 + 2 + deps.len() * 12 + 1 + val_len,
                );
                buf.put_u8(OP_DELTA);
                put_str(&mut buf, &key);
                buf.put_u32(*origin);
                buf.put_u64(*seq);
                buf.put_u16(deps.len() as u16);
                for (shard, n) in deps {
                    buf.put_u32(*shard);
                    buf.put_u64(*n);
                }
                match value {
                    Some(v) => {
                        buf.put_u8(1);
                        buf.put_u32(v.len() as u32);
                        buf.put_slice(v);
                    }
                    None => buf.put_u8(0),
                }
                buf.freeze()
            }
        }
    }

    /// Decode from wire bytes. Panics on malformed input (the simulation
    /// is a closed world; corruption would be a program bug).
    pub fn decode(mut raw: Bytes) -> Request {
        match raw.get_u8() {
            OP_COMMIT => {
                let key = get_sym(&mut raw);
                let len = raw.get_u32() as usize;
                let value = raw.split_to(len);
                Request::Commit { key, value }
            }
            OP_LOOKUP => Request::Lookup {
                key: get_sym(&mut raw),
            },
            OP_WAIT => Request::WaitKey {
                key: get_sym(&mut raw),
            },
            OP_UNLINK => Request::Unlink {
                key: get_sym(&mut raw),
            },
            OP_DELTA => {
                let key = get_sym(&mut raw);
                let origin = raw.get_u32();
                let seq = raw.get_u64();
                let n_deps = raw.get_u16() as usize;
                let deps = (0..n_deps)
                    .map(|_| (raw.get_u32(), raw.get_u64()))
                    .collect();
                let value = match raw.get_u8() {
                    0 => None,
                    _ => {
                        let len = raw.get_u32() as usize;
                        Some(raw.split_to(len))
                    }
                };
                Request::Delta {
                    key,
                    origin,
                    seq,
                    deps,
                    value,
                }
            }
            op => panic!("unknown kvs request op {op}"),
        }
    }
}

/// Encode a bare `op + key` request with one exact-capacity allocation.
fn encode_keyed(op: u8, key: Symbol) -> Bytes {
    let key = key.resolve();
    let mut buf = BytesMut::with_capacity(1 + 2 + key.len());
    buf.put_u8(op);
    put_str(&mut buf, &key);
    buf.freeze()
}

impl Response {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = match self {
            Response::Value { value, .. } => BytesMut::with_capacity(1 + 8 + 4 + value.len()),
            _ => BytesMut::with_capacity(1 + 8),
        };
        match self {
            Response::Committed { version } => {
                buf.put_u8(RESP_COMMITTED);
                buf.put_u64(*version);
            }
            Response::Value { version, value } => {
                buf.put_u8(RESP_VALUE);
                buf.put_u64(*version);
                buf.put_u32(value.len() as u32);
                buf.put_slice(value);
            }
            Response::NotFound => buf.put_u8(RESP_NOT_FOUND),
            Response::Unlinked => buf.put_u8(RESP_UNLINKED),
            Response::DeltaAck => buf.put_u8(RESP_DELTA_ACK),
            Response::ShardDown => buf.put_u8(RESP_SHARD_DOWN),
        }
        buf.freeze()
    }

    /// Decode from wire bytes.
    pub fn decode(mut raw: Bytes) -> Response {
        match raw.get_u8() {
            RESP_COMMITTED => Response::Committed {
                version: raw.get_u64(),
            },
            RESP_VALUE => {
                let version = raw.get_u64();
                let len = raw.get_u32() as usize;
                let value = raw.split_to(len);
                Response::Value { version, value }
            }
            RESP_NOT_FOUND => Response::NotFound,
            RESP_UNLINKED => Response::Unlinked,
            RESP_DELTA_ACK => Response::DeltaAck,
            RESP_SHARD_DOWN => Response::ShardDown,
            op => panic!("unknown kvs response op {op}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Commit {
                key: intern("a/b/c"),
                value: Bytes::from_static(b"payload"),
            },
            Request::Lookup { key: intern("x") },
            Request::WaitKey { key: intern("") },
            Request::Unlink { key: intern("k") },
            Request::Delta {
                key: intern("frames/p0001/f3"),
                origin: 2,
                seq: 7,
                deps: vec![(0, 3), (2, 6)],
                value: Some(Bytes::from_static(b"meta")),
            },
            Request::Delta {
                key: intern("tomb"),
                origin: 0,
                seq: 1,
                deps: vec![],
                value: None,
            },
        ] {
            assert_eq!(Request::decode(req.encode()), req);
        }
    }

    /// The symbol-keyed codec puts exactly the same bytes on the wire as
    /// the string protocol: opcode, u16 length, then the key text.
    #[test]
    fn wire_bytes_carry_the_resolved_key_text() {
        let raw = Request::Lookup {
            key: intern("dir/frame07"),
        }
        .encode();
        assert_eq!(raw.len(), 1 + 2 + "dir/frame07".len());
        assert_eq!(&raw[3..], b"dir/frame07");
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::Committed { version: 42 },
            Response::Value {
                version: 7,
                value: Bytes::from_static(b"v"),
            },
            Response::NotFound,
            Response::Unlinked,
            Response::DeltaAck,
            Response::ShardDown,
        ] {
            assert_eq!(Response::decode(resp.encode()), resp);
        }
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn commit_round_trips(key in "[a-z/._0-9]{0,64}",
                                  value in proptest::collection::vec(any::<u8>(), 0..1024)) {
                let req = Request::Commit { key: intern(&key), value: Bytes::from(value) };
                prop_assert_eq!(Request::decode(req.encode()), req);
            }

            #[test]
            fn value_round_trips(version in any::<u64>(),
                                 value in proptest::collection::vec(any::<u8>(), 0..1024)) {
                let resp = Response::Value { version, value: Bytes::from(value) };
                prop_assert_eq!(Response::decode(resp.encode()), resp);
            }

            #[test]
            fn delta_round_trips(key in "[a-z/._0-9]{0,64}",
                                 origin in any::<u32>(),
                                 seq in any::<u64>(),
                                 deps in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8),
                                 tombstone in any::<bool>(),
                                 value in proptest::collection::vec(any::<u8>(), 0..256)) {
                let req = Request::Delta {
                    key: intern(&key),
                    origin,
                    seq,
                    deps,
                    value: (!tombstone).then(|| Bytes::from(value)),
                };
                prop_assert_eq!(Request::decode(req.clone().encode()), req);
            }
        }
    }
}
