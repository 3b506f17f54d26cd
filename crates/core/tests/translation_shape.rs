//! White-box tests of T_Q: the generated programs have exactly the shape
//! the paper's definitions prescribe once every rule read only once has
//! been unfolded into its reader (rule counts, ID regime, system
//! directives), and every workload query translates to a warded program.

use sparqlog::translate_query;
use sparqlog_datalog::{AtomArg, BodyItem, Expr, SymbolTable};
use sparqlog_sparql::parse_query;

fn translate(q: &str) -> (sparqlog_datalog::Program, std::sync::Arc<SymbolTable>) {
    let symbols = SymbolTable::new();
    let query = parse_query(q).unwrap();
    let tq = translate_query(&query, &symbols, "t_").unwrap();
    (tq.program, symbols)
}

/// Whether a body item assigns a tuple ID built by a Skolem constructor.
fn is_skolem_id(item: &BodyItem) -> bool {
    matches!(item, BodyItem::Assign(_, Expr::Skolem(_, args)) if !args.is_empty())
}

/// Counts rules whose body contains a Skolem-constructor assignment.
fn skolem_rules(p: &sparqlog_datalog::Program) -> usize {
    (p.rules.iter())
        .filter(|r| r.body.iter().any(is_skolem_id))
        .count()
}

#[test]
fn triple_pattern_is_one_rule_plus_projection() {
    let (p, _) = translate("SELECT ?s WHERE { ?s <http://p> ?o }");
    // ans1 (triple, Def. A.3) + ans (SELECT, Def. A.21); ans1 is read
    // only by the SELECT rule, which takes in its body.
    assert_eq!(p.rules.len(), 1);
    assert_eq!(p.outputs.len(), 1);
}

#[test]
fn optional_generates_three_rules() {
    let (p, _) = translate("SELECT * WHERE { ?s <http://p> ?o OPTIONAL { ?o <http://q> ?z } }");
    // Def. A.7: ans_opt + 2 ans rules; + 2 leaf rules + SELECT = 6.
    assert_eq!(p.rules.len(), 6);
}

#[test]
fn union_generates_two_rules() {
    let (p, _) = translate("SELECT * WHERE { { ?s <http://p> ?o } UNION { ?s <http://q> ?o } }");
    // Def. A.6: 2 union rules + 2 leaves + SELECT = 5; each leaf is
    // unfolded into its union rule: 5 - 2 = 3.
    assert_eq!(p.rules.len(), 3);
}

#[test]
fn minus_generates_join_equal_and_final_rules() {
    let (p, symbols) = translate("SELECT * WHERE { ?s <http://p> ?o MINUS { ?s <http://q> ?z } }");
    // Def. A.10: ans_join + 1 ans_equal (one shared var) + final + 2
    // leaves + SELECT = 6. The right leaf and ans_join unfold into
    // ans_equal, whose `=` splits into a unified rule plus the numeric
    // side rule, and the final rule unfolds into SELECT: 6 - 3 + 1 = 4.
    // The left leaf is read twice and stays.
    assert_eq!(p.rules.len(), 4);
    let names: Vec<String> = p
        .rules
        .iter()
        .map(|r| symbols.resolve(r.head.pred).to_string())
        .collect();
    assert!(!names.iter().any(|n| n.contains("ans_join")));
    assert_eq!(names.iter().filter(|n| n.contains("ans_equal")).count(), 2);
}

#[test]
fn one_or_more_path_generates_closure_rules() {
    let (p, _) = translate("SELECT * WHERE { ?s <http://p>+ ?o }");
    // Def. A.16: 2 closure rules + link rule + glue (A.11) + SELECT = 5;
    // the glue unfolds into SELECT, and the link rule, read by both
    // closure rules, stays: 4.
    assert_eq!(p.rules.len(), 4);
}

#[test]
fn zero_or_more_adds_zero_rules() {
    let (p, _) = translate("SELECT * WHERE { <http://a> <http://p>* ?o }");
    // A bound `p*` is factored: the endpoint rule (a, a) seeds one
    // recursive rule over `triple`, with no subjectOrObject zero rule and
    // no link rule; + the SELECT rule, the glue unfolded into it = 3.
    assert_eq!(p.rules.len(), 3);
    let (p, _) = translate("SELECT * WHERE { ?s <http://p>* ?o }");
    // A.19 unbound: subjectOrObject zero rule + 2 closure rules + link +
    // SELECT with the glue unfolded = 5.
    assert_eq!(p.rules.len(), 5);
}

#[test]
fn bound_one_or_more_grows_from_the_constant_over_triple() {
    let (p, symbols) = translate("SELECT * WHERE { <http://a> <http://p>+ ?o }");
    let a = AtomArg::Const(sparqlog_datalog::Const::Iri(symbols.intern("http://a")));
    let closure: Vec<_> = p
        .rules
        .iter()
        .filter(|r| {
            let head = symbols.resolve(r.head.pred);
            head.ends_with("ans2")
        })
        .collect();
    // ans2([], a, Y, D) :- triple(a, p, Y, D) and
    // ans2([], a, Z, D) :- ans2(_, a, Y, D), triple(Y, p, Z, D).
    assert_eq!(closure.len(), 2);
    for r in &closure {
        assert_eq!(r.head.args[1], a, "no binary closure rule");
    }
    let recursive = closure
        .iter()
        .find(|r| {
            r.body
                .iter()
                .any(|i| matches!(i, BodyItem::Pos(b) if b.pred == r.head.pred))
        })
        .expect("a recursive rule");
    let triple = symbols.intern("triple");
    assert!(recursive
        .body
        .iter()
        .any(|i| matches!(i, BodyItem::Pos(b) if b.pred == triple)));
    // 2 closure rules + SELECT with the glue unfolded: no link rule.
    assert_eq!(p.rules.len(), 3);
}

#[test]
fn closure_children_build_no_tuple_ids() {
    // A closure's answers carry `[]` IDs, so in a bag-semantics query the
    // rules below it — the alternative, sequence and link rules of its
    // inner path — build none either: only the glue rule (A.11) and the
    // SELECT rule mint a Skolem tuple ID, both in the SELECT rule once
    // the glue is unfolded into it.
    for q in [
        "SELECT * WHERE { <http://a> (<http://p>|^<http://q>)* ?y }",
        "SELECT * WHERE { ?x (<http://p>|^<http://q>)* ?y }",
        "SELECT * WHERE { ?x (<http://p>/<http://q>)+ ?y }",
        "SELECT * WHERE { <http://a> (<http://p>/<http://q>)+ ?y }",
        "SELECT * WHERE { ?x (<http://p>|<http://q>)? ?y }",
    ] {
        let (p, _) = translate(q);
        assert_eq!(skolem_rules(&p), 1, "{q}");
        let root = p.rules.iter().find(|r| p.outputs.contains(&r.head.pred));
        let ids = root.unwrap().body.iter().filter(|i| is_skolem_id(i));
        assert_eq!(ids.count(), 2, "{q}");
    }
}

#[test]
fn bag_semantics_uses_skolem_ids() {
    let (p, _) = translate("SELECT ?s WHERE { ?s <http://p> ?o . ?o <http://q> ?z }");
    // Every non-path rule generates a fresh Skolem ID. All four — the
    // two leaves, the join and the projection — sit in one rule once
    // the leaves and the join are unfolded into the projection.
    assert_eq!(p.rules.len(), 1);
    let ids = p.rules[0].body.iter().filter(|i| is_skolem_id(i));
    assert_eq!(ids.count(), 4, "join + 2 leaves + projection");
}

#[test]
fn distinct_forces_nil_ids_everywhere() {
    let (p, _) = translate("SELECT DISTINCT ?s WHERE { ?s <http://p> ?o . ?o <http://q> ?z }");
    assert_eq!(
        skolem_rules(&p),
        0,
        "set semantics: no argument-carrying IDs"
    );
}

#[test]
fn ask_uses_set_semantics_and_negation() {
    let (p, _) = translate("ASK { ?s <http://p> ?o }");
    assert_eq!(skolem_rules(&p), 0);
    let has_negation = p
        .rules
        .iter()
        .any(|r| r.body.iter().any(|i| matches!(i, BodyItem::Neg(_))));
    assert!(has_negation, "Def. A.22's 'not ans_ask(true)' rule");
}

#[test]
fn simple_order_by_becomes_post_directive() {
    // The modifiers are post-evaluation directives for T_S, not rules: an
    // unprojected key rides as a hidden column of the goal predicate.
    let symbols = SymbolTable::new();
    let q = "SELECT ?s WHERE { ?s <http://p> ?o } ORDER BY DESC(?o) LIMIT 3 OFFSET 1";
    let t = translate_query(&parse_query(q).unwrap(), &symbols, "t_").unwrap();
    let names: Vec<&str> = t.columns.iter().map(|v| v.name()).collect();
    assert_eq!((names, t.visible), (vec!["s", "o"], 1));
    assert_eq!(t.order, vec![(Expr::Var(1), true)]);
    assert_eq!((t.offset, t.limit), (1, Some(3)));
    let root = t.program.rules.iter().find(|r| r.head.pred == t.root_pred);
    assert_eq!(root.unwrap().head.args.len(), 4, "[Id, s, o, D]");
}

#[test]
fn complex_order_by_defers_to_solution_layer() {
    // An expression key compiles once, over column positions, and T_S
    // evaluates it per row.
    let symbols = SymbolTable::new();
    let q = "SELECT ?n WHERE { ?s <http://n> ?n OPTIONAL { ?s <http://h> ?h } } \
             ORDER BY (!BOUND(?h)) ?n LIMIT 3";
    let t = translate_query(&parse_query(q).unwrap(), &symbols, "t_").unwrap();
    assert_eq!(t.columns.len(), 2);
    assert!(!matches!(t.order[0].0, Expr::Var(_)));
    assert_eq!(t.order[1], (Expr::Var(0), false));
    assert_eq!((t.offset, t.limit), (0, Some(3)));
}

#[test]
fn order_by_keys_are_columns_or_unsupported() {
    let symbols = SymbolTable::new();
    let tq = |q: &str| translate_query(&parse_query(q).unwrap(), &symbols, "t_");

    // A group row has no value for a key outside the aggregate's output.
    let q = "SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s <http://p> ?o } GROUP BY ?s ORDER BY ?o";
    let err = tq(q).unwrap_err();
    assert!(err.unsupported, "{err}");
    let q = "SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s <http://p> ?o } GROUP BY ?s ORDER BY DESC(?c)";
    assert_eq!(tq(q).unwrap().order, vec![(Expr::Var(1), true)]);
}

#[test]
fn join_reordering_avoids_cross_products() {
    // SP²Bench q4's shape, whose text opens with two disconnected
    // patterns (article1-type, then article2-type). Its eight patterns
    // and the filter are one rule, and the planner orders that rule so
    // every probe after the first keys on a variable an earlier step
    // bound: the subject or the object of `triple(s, p, o, g)`, beyond
    // the constant predicate and graph.
    let mut turtle = String::from("@prefix ex: <http://e/> .\n");
    for i in 0..30 {
        turtle.push_str(&format!(
            "ex:a{i} a ex:Article ; ex:creator ex:p{} ; ex:journal ex:j{} .\n\
             ex:p{} ex:name \"n{}\" .\n",
            i % 7,
            i % 4,
            i % 7,
            i % 7
        ));
    }
    let store = sparqlog::Store::new();
    store.load_turtle(&turtle).unwrap();
    let prepared = store
        .prepare(
            "PREFIX ex: <http://e/>
             SELECT DISTINCT ?name1 ?name2 WHERE {
               ?article1 a ex:Article .
               ?article2 a ex:Article .
               ?article1 ex:creator ?author1 .
               ?author1 ex:name ?name1 .
               ?article2 ex:creator ?author2 .
               ?author2 ex:name ?name2 .
               ?article1 ex:journal ?journal .
               ?article2 ex:journal ?journal
               FILTER (?name1 < ?name2) }",
        )
        .unwrap();
    let plan = store.snapshot().explain(&prepared).unwrap();
    assert_eq!(
        plan.lines().filter(|l| l.starts_with("rule ")).count(),
        1,
        "{plan}"
    );
    let masks: Vec<u64> = (plan.lines().map(str::trim_start))
        .filter(|l| l.starts_with("probe ") || l.starts_with("exists "))
        .map(|l| {
            let mask = l
                .split("mask=0b")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap();
            u64::from_str_radix(mask, 2).unwrap()
        })
        .collect();
    assert!(masks.len() > 1, "{plan}");
    for mask in &masks[1..] {
        assert_ne!(mask & 0b0101, 0, "a probe keyed on constants only:\n{plan}");
    }
}

#[test]
fn compatibility_and_null_are_items_not_relations() {
    // Joins, OPTIONAL, MINUS, UNION padding and an unbound projection:
    // every construct whose Def. A.2 rules read `comp`/`null`. A join or
    // OPTIONAL on a variable certain on both sides shares one column and
    // needs no compat item; one on a variable an OPTIONAL may leave
    // unbound does.
    for (q, compat) in [
        ("SELECT * WHERE { ?s <http://p> ?o . ?o <http://q> ?z }", false),
        ("SELECT * WHERE { ?s <http://p> ?o OPTIONAL { ?o <http://q> ?z } }", false),
        ("SELECT * WHERE { ?s <http://p> ?o MINUS { ?s <http://q> ?z } }", true),
        ("SELECT * WHERE { { ?s <http://p> ?o } UNION { ?s <http://q> ?z } }", false),
        ("SELECT ?s ?never WHERE { ?s <http://p> ?o }", false),
        (
            "SELECT * WHERE { { ?s <http://p> ?o OPTIONAL { ?s <http://q> ?z } } ?z <http://r> ?w }",
            true,
        ),
    ] {
        let (p, symbols) = translate(q);
        for rule in &p.rules {
            for item in &rule.body {
                if let BodyItem::Pos(a) | BodyItem::Neg(a) = item {
                    let pred = symbols.resolve(a.pred);
                    assert!(
                        !["comp", "null", "term", "iri", "literal", "bnode"]
                            .contains(&pred.as_ref()),
                        "{q}: {}",
                        rule.display(&symbols)
                    );
                }
            }
        }
        let found =
            (p.rules.iter().flat_map(|r| &r.body)).any(|i| matches!(i, BodyItem::Compat(_)));
        assert_eq!(found, compat, "{q}");
    }
}
