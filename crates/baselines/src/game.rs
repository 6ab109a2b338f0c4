//! A traditional hand-written game server (the paper's §4.4
//! comparator): one receiver thread applying moves under a lock, one
//! tick thread stepping the world and broadcasting at 10 Hz.

use flux_game::{encode_snapshot, ClientMsg, World};
use flux_net::Datagram;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Stats comparable with the Flux game server's.
#[derive(Default)]
pub struct GameStats {
    pub moves_applied: AtomicU64,
    pub broadcasts: AtomicU64,
}

/// A running traditional game server.
pub struct HandGameServer {
    pub stats: Arc<GameStats>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl HandGameServer {
    /// Starts the receiver and tick threads.
    pub fn start(socket: Arc<dyn Datagram>, tick: Duration, seed: u64) -> HandGameServer {
        let stats = Arc::new(GameStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let world = Arc::new(Mutex::new(World::new(seed)));
        let clients: Arc<Mutex<HashMap<u32, String>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut threads = Vec::new();

        {
            let socket = socket.clone();
            let world = world.clone();
            let clients = clients.clone();
            let stats = stats.clone();
            let stop = stop.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("game-recv".into())
                    .spawn(move || {
                        let mut buf = [0u8; 256];
                        loop {
                            if stop.load(Ordering::SeqCst) {
                                return;
                            }
                            let Ok(Some((n, from))) =
                                socket.recv_from(&mut buf, Some(Duration::from_millis(20)))
                            else {
                                continue;
                            };
                            match ClientMsg::decode(&buf[..n]) {
                                Some(ClientMsg::Join { player }) => {
                                    world.lock().join(player);
                                    clients.lock().insert(player, from);
                                }
                                Some(ClientMsg::Leave { player }) => {
                                    world.lock().leave(player);
                                    clients.lock().remove(&player);
                                }
                                Some(ClientMsg::Move(m))
                                    if clients.lock().contains_key(&m.player) =>
                                {
                                    world.lock().apply_move(m);
                                    stats.moves_applied.fetch_add(1, Ordering::Relaxed);
                                }
                                Some(ClientMsg::Move(_)) => {}
                                None => {}
                            }
                        }
                    })
                    .expect("spawn game receiver"),
            );
        }

        {
            let stats = stats.clone();
            let stop = stop.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("game-tick".into())
                    .spawn(move || loop {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(tick);
                        let snap = world.lock().step();
                        let wire = encode_snapshot(&snap);
                        for addr in clients.lock().values() {
                            let _ = socket.send_to(&wire, addr);
                        }
                        stats.broadcasts.fetch_add(1, Ordering::Relaxed);
                    })
                    .expect("spawn game ticker"),
            );
        }

        HandGameServer {
            stats,
            stop,
            threads,
        }
    }

    /// Stops the server.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_game::decode_snapshot;
    use flux_net::MemNet;

    #[test]
    fn joins_moves_and_broadcasts() {
        let net = MemNet::new();
        let sock = Arc::new(net.bind_datagram("hand-game").unwrap());
        let server = HandGameServer::start(sock, Duration::from_millis(10), 5);
        let c1 = net.bind_datagram("hp1").unwrap();
        c1.send_to(&ClientMsg::Join { player: 1 }.encode(), "hand-game")
            .unwrap();
        let mut buf = [0u8; 2048];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let snap = loop {
            assert!(std::time::Instant::now() < deadline);
            if let Some((n, _)) = c1
                .recv_from(&mut buf, Some(Duration::from_millis(100)))
                .unwrap()
            {
                break decode_snapshot(&buf[..n]).unwrap();
            }
        };
        assert_eq!(snap.it, Some(1));
        assert_eq!(snap.players.len(), 1);
        // The ticker counts a broadcast after sending it: join it
        // before reading the count the received snapshot implies.
        let stats = server.stats.clone();
        server.stop();
        assert!(stats.broadcasts.load(Ordering::Relaxed) > 0);
    }
}
