//! Set-up: the loaded store, the server in front of it, and the expected
//! signature of every distinct text, all built the way `setup_s` times them.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparqlog::Store;
use sparqlog_http::{ServerConfig, ServerHandle, SparqlServer};

use crate::loadgen::{query_request, Conn};
use crate::oracle::{digest_body, pinned, ClassTable, Format, Sig, PINNED_SEED};
use crate::workload::{Transport, Workload};

/// Two load connections plus one for the control scrape.
const SERVER_WORKERS: usize = 3;

pub struct Server {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    pub fn start(store: Arc<Store>) -> std::io::Result<Server> {
        let config = ServerConfig {
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        };
        let bound = SparqlServer::with_config(store, config).bind("127.0.0.1:0")?;
        let addr = bound.local_addr()?;
        let handle = bound.handle()?;
        let thread = std::thread::spawn(move || bound.serve());
        Ok(Server {
            addr,
            handle,
            thread: Some(thread),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The ten standing triples `churn_mix`'s `DELETE/INSERT ... WHERE`
/// rewrites; no read template mentions their predicate.
const CHURN_ANCHORS: usize = 10;

pub struct Rig {
    pub store: Arc<Store>,
    pub server: Option<Server>,
    /// Per text, per [`Format`] (in declaration order): what a correct
    /// response looks like. Suites fill JSON only.
    expected: Vec<[Sig; 3]>,
    /// The whole of [`Rig::build`]: what `setup_s` reports.
    pub total: Duration,
    /// Operations attempted / failed during the two warm-up passes.
    pub attempted: u64,
    pub failed: u64,
}

impl Rig {
    /// Data generation, `load_ntriples`, server bind, then exactly two
    /// warm-up passes over the distinct texts: the first in-process (it
    /// pays first translation, planning and lazy index builds, and yields
    /// the expected signatures), the second over the workload's transport
    /// (checked against the first).
    pub fn build(w: &Workload, seed: u64) -> Result<Rig, String> {
        let t0 = Instant::now();
        let (ntriples, _) = w.generate(seed);

        let store = Arc::new(Store::new());
        // Evaluator width is pinned: parallel speed-up is not what this
        // measures, and width 1 makes every count repeat exactly.
        store.set_threads(Some(1));
        store
            .load_ntriples(&ntriples)
            .map_err(|e| format!("load_ntriples: {e}"))?;
        drop(ntriples);

        if w.churn {
            let anchors: String = (0..CHURN_ANCHORS)
                .map(|i| format!("g:churnAnchor{i} g:churnFlag g:flag0 . "))
                .collect();
            store
                .update(&format!(
                    "{}INSERT DATA {{ {anchors}}}",
                    crate::mix::PROLOGUE
                ))
                .map_err(|e| format!("anchor insert: {e}"))?;
        }
        let server = match w.transport {
            Transport::Http => Some(Server::start(store.clone()).map_err(|e| e.to_string())?),
            Transport::InProcess => None,
        };

        let formats: &[Format] = match w.transport {
            Transport::Http => &[Format::Json, Format::Tsv, Format::Csv],
            Transport::InProcess => &[Format::Json],
        };
        let snapshot = store.snapshot();
        let mut buf = Vec::new();
        let mut expected = vec![[Sig::default(); 3]; w.texts.len()];
        let (mut attempted, mut failed) = (0, 0);
        for (text, slot) in w.texts.iter().zip(&mut expected) {
            attempted += 1;
            let Ok(results) = snapshot.execute(&text.sparql) else {
                failed += 1;
                continue;
            };
            for &f in formats {
                buf.clear();
                match f.serialize(&results, &mut buf) {
                    Ok(()) => slot[f as usize] = digest_body(f, &buf),
                    Err(_) => failed += 1,
                }
            }
        }
        let mut conn = match &server {
            Some(s) => Some(Conn::connect(s.addr).map_err(|e| e.to_string())?),
            None => None,
        };
        for (text, want) in w.texts.iter().zip(&expected) {
            attempted += 1;
            let got = match &mut conn {
                Some(conn) => conn
                    .roundtrip(&query_request(&text.sparql, Format::Json), &mut buf)
                    .ok()
                    .filter(|&status| status == 200)
                    .map(|_| digest_body(Format::Json, &buf)),
                None => snapshot.execute(&text.sparql).ok().and_then(|r| {
                    buf.clear();
                    Format::Json.serialize(&r, &mut buf).ok()?;
                    Some(digest_body(Format::Json, &buf))
                }),
            };
            if got != Some(want[Format::Json as usize]) {
                failed += 1;
            }
        }
        Ok(Rig {
            store,
            server,
            expected,
            total: t0.elapsed(),
            attempted,
            failed,
        })
    }

    /// What a correct response to text `text` in `format` looks like.
    pub fn expected(&self, text: usize, format: Format) -> Sig {
        self.expected[text][format as usize]
    }

    /// Per-class aggregate of the expected JSON signatures: what
    /// `oracle_seed1.tsv` pins.
    pub fn class_table(&self, w: &Workload) -> ClassTable {
        let mut table = ClassTable::new();
        for (text, sigs) in w.texts.iter().zip(&self.expected) {
            table
                .entry(w.classes[text.class].name.clone())
                .or_default()
                .absorb(&text.sparql, sigs[Format::Json as usize]);
        }
        table
    }

    /// Checks the per-class signatures against `oracle_seed1.tsv`. Returns
    /// the number of classes that disagree (0 at any seed but the pinned).
    pub fn pinned_mismatches(&self, w: &Workload, seed: u64) -> Result<u64, String> {
        if seed != PINNED_SEED {
            return Ok(0);
        }
        let pinned =
            pinned(w.name).ok_or(format!("oracle_seed1.tsv has no rows for {}", w.name))?;
        let ours = self.class_table(w);
        let mut bad = 0;
        for (class, sig) in &ours {
            if pinned.get(class) != Some(sig) {
                eprintln!(
                    "{}: class {class} is {sig:?}, pinned {:?}",
                    w.name,
                    pinned.get(class)
                );
                bad += 1;
            }
        }
        Ok(bad + pinned.keys().filter(|k| !ours.contains_key(*k)).count() as u64)
    }
}
