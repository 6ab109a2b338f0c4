//! The UDP heartbeat wire protocol: joins, moves and state broadcasts
//! at 10 Hz (paper §4.4). A compact hand-rolled binary format keeps
//! datagrams small, as real game protocols do.

use crate::world::{Move, Pos, Snapshot};

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Join the game; the reply address comes from the datagram source.
    Join { player: u32 },
    /// A movement request for this tick.
    Move(Move),
    /// Leave the game.
    Leave { player: u32 },
}

impl ClientMsg {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ClientMsg::Join { player } => {
                let mut v = vec![b'J'];
                v.extend_from_slice(&player.to_be_bytes());
                v
            }
            ClientMsg::Move(m) => {
                let mut v = vec![b'M'];
                v.extend_from_slice(&m.player.to_be_bytes());
                v.extend_from_slice(&m.dx.to_be_bytes());
                v.extend_from_slice(&m.dy.to_be_bytes());
                v
            }
            ClientMsg::Leave { player } => {
                let mut v = vec![b'L'];
                v.extend_from_slice(&player.to_be_bytes());
                v
            }
        }
    }

    pub fn decode(data: &[u8]) -> Option<ClientMsg> {
        let u32_at = |i: usize| -> Option<u32> {
            data.get(i..i + 4)
                .map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
        };
        let i32_at = |i: usize| -> Option<i32> {
            data.get(i..i + 4)
                .map(|b| i32::from_be_bytes(b.try_into().expect("4 bytes")))
        };
        match data.first()? {
            b'J' => Some(ClientMsg::Join { player: u32_at(1)? }),
            b'L' => Some(ClientMsg::Leave { player: u32_at(1)? }),
            b'M' => Some(ClientMsg::Move(Move {
                player: u32_at(1)?,
                dx: i32_at(5)?,
                dy: i32_at(9)?,
            })),
            _ => None,
        }
    }
}

/// Serializes a state broadcast: tick, "it", then (id, x, y) triples.
pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    let mut v = Vec::with_capacity(16 + 12 * s.players.len());
    v.push(b'S');
    v.extend_from_slice(&s.tick.to_be_bytes());
    v.extend_from_slice(&s.it.unwrap_or(u32::MAX).to_be_bytes());
    v.extend_from_slice(&(s.players.len() as u32).to_be_bytes());
    for (id, p) in &s.players {
        v.extend_from_slice(&id.to_be_bytes());
        v.extend_from_slice(&p.x.to_be_bytes());
        v.extend_from_slice(&p.y.to_be_bytes());
    }
    v
}

/// Parses a state broadcast.
pub fn decode_snapshot(data: &[u8]) -> Option<Snapshot> {
    if data.first() != Some(&b'S') {
        return None;
    }
    let tick = u64::from_be_bytes(data.get(1..9)?.try_into().ok()?);
    let it_raw = u32::from_be_bytes(data.get(9..13)?.try_into().ok()?);
    let n = u32::from_be_bytes(data.get(13..17)?.try_into().ok()?) as usize;
    // Each player is 12 bytes: a count the datagram cannot hold is
    // rejected before it sizes an allocation.
    if n > (data.len() - 17) / 12 {
        return None;
    }
    let mut players = Vec::with_capacity(n);
    for i in 0..n {
        let base = 17 + 12 * i;
        let id = u32::from_be_bytes(data.get(base..base + 4)?.try_into().ok()?);
        let x = i32::from_be_bytes(data.get(base + 4..base + 8)?.try_into().ok()?);
        let y = i32::from_be_bytes(data.get(base + 8..base + 12)?.try_into().ok()?);
        players.push((id, Pos { x, y }));
    }
    Some(Snapshot {
        tick,
        it: (it_raw != u32::MAX).then_some(it_raw),
        players,
    })
}

/// The heartbeat period: 10 Hz, "a rate comparable to other real-world
/// online games".
pub const TICK_MS: u64 = 100;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_messages_round_trip() {
        for msg in [
            ClientMsg::Join { player: 7 },
            ClientMsg::Leave { player: 7 },
            ClientMsg::Move(Move {
                player: 3,
                dx: -25,
                dy: 10,
            }),
        ] {
            assert_eq!(ClientMsg::decode(&msg.encode()), Some(msg));
        }
    }

    #[test]
    fn snapshot_round_trip() {
        let s = Snapshot {
            tick: 42,
            it: Some(3),
            players: vec![(1, Pos { x: 10, y: 20 }), (3, Pos { x: 500, y: 999 })],
        };
        assert_eq!(decode_snapshot(&encode_snapshot(&s)), Some(s));
    }

    #[test]
    fn snapshot_without_it() {
        let s = Snapshot {
            tick: 1,
            it: None,
            players: vec![],
        };
        assert_eq!(decode_snapshot(&encode_snapshot(&s)), Some(s));
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(ClientMsg::decode(b""), None);
        assert_eq!(ClientMsg::decode(b"X123"), None);
        assert_eq!(ClientMsg::decode(b"J"), None);
        assert_eq!(decode_snapshot(b"S12"), None);
        assert_eq!(decode_snapshot(b"Q"), None);
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let s = Snapshot {
            tick: 1,
            it: Some(1),
            players: vec![(1, Pos { x: 1, y: 1 })],
        };
        let enc = encode_snapshot(&s);
        assert_eq!(decode_snapshot(&enc[..enc.len() - 1]), None);
    }

    /// A 17-byte datagram claiming `u32::MAX` players is rejected; it
    /// must not size a `Vec` of four billion entries.
    #[test]
    fn player_count_beyond_datagram_rejected() {
        let mut enc = encode_snapshot(&Snapshot {
            tick: 1,
            it: None,
            players: Vec::new(),
        });
        assert_eq!(enc.len(), 17);
        enc[13..17].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_snapshot(&enc), None);
        // A count one past what the bytes hold is rejected too.
        let mut one = encode_snapshot(&Snapshot {
            tick: 1,
            it: None,
            players: vec![(1, Pos { x: 1, y: 1 })],
        });
        one[13..17].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(decode_snapshot(&one), None);
    }
}
