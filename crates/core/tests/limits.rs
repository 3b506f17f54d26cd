//! Inputs at and past the engine's size limits: relations are at most
//! 64 columns wide, and the parser refuses a pattern, path or expression
//! tree deeper than its bound. Each query runs on a 2 MiB thread, the
//! default size of a spawned thread (an HTTP worker is one), so a limit
//! that lets a tree through which a later pass cannot walk aborts this
//! test binary.

use sparqlog::{SparqLogError, Store};
use sparqlog_sparql::parse_query;

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

fn store() -> Store {
    let store = Store::new();
    store
        .load_turtle(
            "@prefix ex: <http://e/> .
             ex:a ex:p ex:a ; ex:q ex:b .
             ex:b ex:p ex:a .",
        )
        .unwrap();
    store
}

/// `SELECT (COUNT(*) AS ?c)` over `?s ex:p ?o0 . … ?s ex:p ?o{n-1}`: the
/// BGP's answer relation holds `n + 1` variables plus its ID and graph
/// columns.
fn wide_bgp(n: usize) -> String {
    let bgp: String = (0..n).map(|i| format!("?s ex:p ?o{i} . ")).collect();
    format!("PREFIX ex: <http://e/> SELECT (COUNT(*) AS ?c) {{ {bgp}}}")
}

#[test]
fn relations_wider_than_64_columns_are_refused() {
    on_small_stack(|| {
        let store = store();
        // 61 objects and ?s: 62 variables, 64 columns.
        let results = store.execute(&wide_bgp(61)).unwrap();
        let count = &results.solutions().unwrap().rows[0][0];
        assert_eq!(
            count.as_ref().and_then(|c| c.as_literal()?.as_i64()),
            Some(2)
        );
        for n in [62, 70] {
            let err = store.execute(&wide_bgp(n)).unwrap_err();
            assert!(err.is_unsupported(), "{n}: {err}");
            assert!(err.to_string().contains("64 columns"), "{n}: {err}");
            assert!(matches!(err, SparqLogError::Translation(_)), "{n}: {err}");
        }
    });
}

/// A query whose tree grows one level with `n`, and its row count over
/// [`store`] for any `n ≥ 1`.
struct Shape {
    name: &'static str,
    query: fn(usize) -> String,
    rows: usize,
}

fn select(head: &str, body: String) -> String {
    format!("PREFIX ex: <http://e/> SELECT {head} {{ {body} }}")
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "||",
        query: |n| {
            select(
                "?s",
                format!("?s ex:p ?o FILTER ({})", vec!["?o = ex:a"; n].join(" || ")),
            )
        },
        rows: 2,
    },
    Shape {
        name: "&&",
        query: |n| {
            select(
                "?s",
                format!("?s ex:p ?o FILTER ({})", vec!["?o = ex:a"; n].join(" && ")),
            )
        },
        rows: 2,
    },
    Shape {
        name: "+",
        query: |n| {
            select(
                "?s",
                format!("?s ex:q ?o FILTER ({} > 0)", vec!["1"; n].join(" + ")),
            )
        },
        rows: 1,
    },
    Shape {
        name: "/",
        query: |n| select("?s", format!("?s {} ex:a", vec!["ex:p"; n].join("/"))),
        rows: 2,
    },
    Shape {
        name: "|",
        query: |n| {
            select(
                "DISTINCT ?o",
                format!("ex:a {} ?o", vec!["ex:q"; n].join("|")),
            )
        },
        rows: 1,
    },
    Shape {
        name: "UNION",
        query: |n| select("DISTINCT ?o", vec!["{ ?s ex:q ?o }"; n].join(" UNION ")),
        rows: 1,
    },
    Shape {
        name: "join",
        query: |n| select("DISTINCT ?s", "?s ex:p ?o . ".repeat(n)),
        rows: 2,
    },
    Shape {
        name: "OPTIONAL",
        query: |n| {
            select(
                "DISTINCT ?s",
                format!("?s ex:p ex:a {}", "OPTIONAL { ?s ex:q ?o } ".repeat(n)),
            )
        },
        rows: 2,
    },
    Shape {
        name: "group",
        query: |n| {
            select(
                "?s",
                format!("{}?s ex:q ?o{}", "{ ".repeat(n - 1), " }".repeat(n - 1)),
            )
        },
        rows: 1,
    },
    Shape {
        name: "STR(",
        query: |n| {
            select(
                "?s",
                format!(
                    "?s ex:q ?o FILTER ({}?o{} != \"\")",
                    "STR(".repeat(n),
                    ")".repeat(n)
                ),
            )
        },
        rows: 1,
    },
];

/// Long flat chains parse in a loop, but T_Q, evaluation and display
/// walk them recursively: past the bound they are a parse error, and a
/// query at the bound runs end to end.
#[test]
fn deep_trees_stop_at_the_parser_bound() {
    on_small_stack(|| {
        let store = store();
        for Shape { name, query, rows } in SHAPES {
            let err = store.execute(&query(5_000)).unwrap_err();
            assert!(matches!(err, SparqLogError::Parse(_)), "{name}: {err}");
            assert!(
                err.to_string().contains("nesting deeper than"),
                "{name}: {err}"
            );

            let bound = (1..)
                .take_while(|&n| parse_query(&query(n)).is_ok())
                .last()
                .unwrap();
            assert!(bound >= 64, "{name}: bound {bound}");
            let text = query(bound);
            assert!(!parse_query(&text).unwrap().to_string().is_empty());
            let results = store.execute(&text).unwrap();
            assert_eq!(results.len(), *rows, "{name} at {bound}");
        }

        // Nested joins count as the one chain T_Q flattens them into: a
        // balanced tree of groups 12 deep holds 4 096 triples.
        fn balanced(depth: u32) -> String {
            match depth {
                0 => "?s ex:p ?o .".to_string(),
                d => format!("{{ {} }} {{ {} }}", balanced(d - 1), balanced(d - 1)),
            }
        }
        let err = store.execute(&select("?s", balanced(12))).unwrap_err();
        assert!(matches!(err, SparqLogError::Parse(_)), "{err}");
    });
}
