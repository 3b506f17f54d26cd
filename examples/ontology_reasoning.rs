//! Ontological reasoning (requirement RQ3): RDFS hierarchies and an
//! existential OWL 2 QL axiom, answered uniformly with queries — "we also
//! get ontological reasoning for free" (paper §1).
//!
//! ```sh
//! cargo run --example ontology_reasoning
//! ```

use sparqlog::{Axiom, Ontology, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::new();
    store.load_turtle(
        r#"
        @prefix ex: <http://ex.org/> .
        @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
        ex:art1 rdf:type ex:Article ; ex:cites ex:art2 .
        ex:art2 rdf:type ex:Article .
        ex:alice rdf:type ex:Person .
        "#,
    )?;

    let onto = Ontology::new()
        .with(Axiom::SubClassOf(
            "http://ex.org/Article".into(),
            "http://ex.org/Publication".into(),
        ))
        .with(Axiom::SubClassOf(
            "http://ex.org/Publication".into(),
            "http://ex.org/Document".into(),
        ))
        .with(Axiom::SubPropertyOf(
            "http://ex.org/cites".into(),
            "http://ex.org/references".into(),
        ))
        // Every person has a parent who is a person — genuine object
        // invention via Warded Datalog± existentials.
        .with(Axiom::SomeValuesFrom {
            class: "http://ex.org/Person".into(),
            property: "http://ex.org/hasParent".into(),
            filler: "http://ex.org/Person".into(),
        });
    store.add_ontology(&onto)?;

    let docs = store.execute("PREFIX ex: <http://ex.org/> SELECT ?d WHERE { ?d a ex:Document }")?;
    println!("Documents (via subClassOf chain): {}", docs.len());
    assert_eq!(docs.len(), 2);

    let refs =
        store.execute("PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:references ?y }")?;
    println!("references (via subPropertyOf): {}", refs.len());
    assert_eq!(refs.len(), 1);

    let parent_of = |person: &str| -> Result<sparqlog::Term, sparqlog::SparqLogError> {
        let parents = store.execute(&format!(
            "PREFIX ex: <http://ex.org/> SELECT ?p WHERE {{ ex:{person} ex:hasParent ?p }}"
        ))?;
        assert_eq!(parents.len(), 1);
        Ok(parents
            .solutions()
            .unwrap()
            .solution(0)
            .unwrap()
            .get("p")
            .unwrap()
            .clone())
    };
    let parent = parent_of("alice")?;
    println!("alice's invented parent (labelled null): {parent}");
    assert!(parent.is_bnode());

    // Later commits extend the materialisation from their own delta: the
    // new article is a Document at once, and the new person gets a parent.
    store.update(
        "PREFIX ex: <http://ex.org/>
         INSERT DATA { ex:art3 a ex:Article . ex:bob a ex:Person }",
    )?;
    let docs = store.execute("PREFIX ex: <http://ex.org/> SELECT ?d WHERE { ?d a ex:Document }")?;
    println!("Documents after inserting ex:art3: {}", docs.len());
    assert_eq!(docs.len(), 3);
    let parent = parent_of("bob")?;
    println!("bob's invented parent: {parent}");
    assert!(parent.is_bnode());
    Ok(())
}
