//! The committed pipeline baseline (`results/BENCH_pipeline.json`, written
//! by `scripts/pipegate.sh --record`) must hold exactly the workloads and
//! end-to-end metrics `BENCHMARK.json` defines. A metric added to the
//! benchmark without a re-record would otherwise go ungated: the gate
//! would find no baseline for it.

use sara_util::Json;

fn read(rel: &str) -> Json {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} array"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("entry without a name").to_string())
        .collect()
}

fn keys(doc: &Json) -> Vec<String> {
    match doc {
        Json::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn baseline_covers_every_workload_and_end_to_end_metric() {
    let bench = read("BENCHMARK.json");
    let base = read("results/BENCH_pipeline.json");

    assert_eq!(sorted(keys(&base)), ["runs", "seconds", "seed", "workloads"]);
    for key in ["seed", "seconds", "runs"] {
        let v = base.get(key).and_then(Json::as_f64);
        assert!(v.is_some_and(|v| v > 0.0), "{key} = {v:?}: expected a positive number");
    }

    let workloads = base.get("workloads").expect("workloads");
    assert_eq!(sorted(keys(workloads)), sorted(names(&bench, "workloads")));
    let metrics = sorted(names(&bench, "end_to_end"));
    for w in names(&bench, "workloads") {
        let row = workloads.get(&w).unwrap();
        assert_eq!(sorted(keys(row)), metrics, "{w}: metrics differ from BENCHMARK.json");
        for m in &metrics {
            let v = row.get(m).and_then(Json::as_f64);
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{w}/{m} = {v:?}: expected a finite positive number"
            );
        }
    }
}
