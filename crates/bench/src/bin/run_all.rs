//! Runs every experiment in paper order.
use sparqlog_bench::harness::{scale_from_env, timeout_from_env};
use sparqlog_bench::tables;
use sparqlog_benchdata::gmark::Scenario;

fn main() {
    let timeout = timeout_from_env();
    let scale = scale_from_env();
    let section = |name: &str| {
        println!("\n{}\n=== {name} ===\n", "=".repeat(72));
    };
    section("Table 1 — SPARQL feature coverage");
    println!("{}", tables::table1());
    section("Table 2 — benchmark feature coverage");
    println!("{}", tables::table2());
    section("Table 3 — BeSEPPI compliance");
    println!("{}", tables::table3(timeout));
    section("FEASIBLE(S) compliance (§6.2)");
    println!("{}", tables::compliance_feasible(timeout));
    section("SP2Bench compliance (§6.2)");
    println!("{}", tables::compliance_sp2bench(timeout));
    section("Figure 7 / Table 11 — SP2Bench performance");
    println!("{}", tables::fig7(timeout, scale));
    section("Figure 8 / Tables 7 & 9 — gMark social");
    println!("{}", tables::gmark_report(Scenario::Social, timeout, scale));
    section("Figure 9 / Tables 8 & 10 — gMark test");
    println!("{}", tables::gmark_report(Scenario::Test, timeout, scale));
    section("Figure 10 — ontology benchmark");
    println!("{}", tables::fig10(timeout, scale));
}
