//! Incremental maintenance under change (paper §7.3).
//!
//! "There is an obvious efficiency challenge in processing the same web
//! pages repeatedly without re-incurring the full cost of extraction when
//! the page is not modified in a material way. … When we process new or
//! updated documents, we need to link them to the existing records to
//! correctly update existing records rather than create new ones."
//!
//! [`recrawl`] diffs the old and new corpus, re-extracts only changed pages,
//! and routes new values onto *existing* records through the
//! record↔document associations (instead of creating duplicates), recording
//! everything in lineage. The returned [`MaintenanceReport`] carries the
//! cost accounting that experiment S6 compares against a full rebuild.

use std::collections::HashMap;

use woc_extract::lists::ConceptProfile;
use woc_lrec::{AttrValue, Provenance, Tick};
use woc_webgen::WebCorpus;

use crate::graph::AssocKind;
use crate::pipeline::{
    document_plane, extract_page, flat_record_index, index_texts, type_value, WebOfConcepts,
};

/// What a maintenance pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintenanceReport {
    /// Pages in the new crawl.
    pub pages_total: usize,
    /// Pages whose DOM changed (or are new) and were re-extracted.
    pub pages_reprocessed: usize,
    /// Existing records that received updated values.
    pub records_updated: usize,
    /// Records newly created (content with no existing record).
    pub records_created: usize,
    /// Records tombstoned because every page they were extracted from
    /// vanished from the crawl.
    pub records_retracted: usize,
}

impl MaintenanceReport {
    /// Fraction of full-rebuild extraction work spent.
    pub fn cost_ratio(&self) -> f64 {
        if self.pages_total == 0 {
            0.0
        } else {
            self.pages_reprocessed as f64 / self.pages_total as f64
        }
    }
}

/// Incrementally maintain `woc` given the previous and the freshly crawled
/// corpus. Only pages whose DOM differs are re-extracted; their values are
/// applied to the records already associated with those pages.
pub fn recrawl(
    woc: &mut WebOfConcepts,
    old: &WebCorpus,
    new: &WebCorpus,
    tick: Tick,
) -> MaintenanceReport {
    let profiles = ConceptProfile::standard();
    // Strictly-increasing clock starting after both the requested tick and
    // everything already in the store.
    let mut clock = tick.max(woc.store.max_tick());
    let mut next_tick = move || {
        clock = clock.next();
        clock
    };
    let mut report = MaintenanceReport {
        pages_total: new.len(),
        ..Default::default()
    };

    for page in new.pages() {
        let changed = match old.get(&page.url) {
            Some(old_page) => old_page.dom != page.dom,
            None => true,
        };
        if !changed {
            continue;
        }
        report.pages_reprocessed += 1;

        let doc_node = woc.lineage.document(&page.url);
        let op = woc
            .lineage
            .operator("incremental-extractor", vec![doc_node]);

        // Existing records extracted from this page, resolved through merges.
        let existing: Vec<woc_lrec::LrecId> = woc
            .web
            .records_of(&page.url)
            .iter()
            .filter(|(_, k)| *k == AssocKind::ExtractedFrom)
            .filter_map(|(r, _)| woc.store.resolve(*r))
            .collect();

        let extractions = extract_page(page, &profiles);
        for rec in &extractions {
            let Some(concept_name) = rec.concept.as_deref() else {
                continue;
            };
            let Some(cid) = woc.registry.id_of(concept_name) else {
                continue;
            };
            // Route onto an existing record of the same concept from this
            // page when one exists; otherwise create.
            let target = existing
                .iter()
                .copied()
                .find(|&id| woc.store.latest(id).is_some_and(|r| r.concept() == cid));
            match target {
                Some(id) => {
                    let mut touched = false;
                    let fields: HashMap<&str, Vec<&str>> = {
                        let mut m: HashMap<&str, Vec<&str>> = HashMap::new();
                        for (k, v) in &rec.fields {
                            m.entry(k.as_str()).or_default().push(v.as_str());
                        }
                        m
                    };
                    let current = woc
                        .store
                        .latest(id)
                        .expect("invariant: live_ids() yields ids with a latest version")
                        .clone();
                    let mut updates: Vec<(String, Vec<AttrValue>)> = Vec::new();
                    for (field, raws) in fields {
                        let new_vals: Vec<AttrValue> =
                            raws.iter().map(|r| type_value(field, r)).collect();
                        let old_vals = current.get(field);
                        let same = old_vals.len() == new_vals.len()
                            && new_vals
                                .iter()
                                .all(|nv| old_vals.iter().any(|ov| ov.value.same_denotation(nv)));
                        if !same {
                            updates.push((field.to_string(), new_vals));
                            touched = true;
                        }
                    }
                    if touched {
                        let t = next_tick();
                        woc.store
                            .update(id, t, |r| {
                                for (field, vals) in &updates {
                                    r.remove(field);
                                    for v in vals {
                                        r.add(
                                            field,
                                            v.clone(),
                                            Provenance::extracted(
                                                &page.url,
                                                "incremental-extractor",
                                                rec.confidence,
                                                t,
                                            ),
                                        );
                                    }
                                }
                            })
                            .expect("incremental update");
                        woc.lineage.record(id, op);
                        report.records_updated += 1;
                    }
                }
                None => {
                    let t = next_tick();
                    let id = woc.store.insert(cid, t, |r| {
                        for (field, raw) in &rec.fields {
                            r.add(
                                field,
                                type_value(field, raw),
                                Provenance::extracted(
                                    &page.url,
                                    "incremental-extractor",
                                    rec.confidence,
                                    t,
                                ),
                            );
                        }
                    });
                    woc.lineage.record(id, op);
                    woc.web.associate(id, &page.url, AssocKind::ExtractedFrom);
                    report.records_created += 1;
                }
            }
        }
    }

    // Tombstone records whose every source page vanished from the crawl:
    // content that no longer exists anywhere must not stay live (audit
    // check W011). Records with at least one surviving source — or none at
    // all (feed-ingested) — are kept.
    let removed: std::collections::HashSet<&str> = old
        .pages()
        .iter()
        .filter(|p| new.get(&p.url).is_none())
        .map(|p| p.url.as_str())
        .collect();
    if !removed.is_empty() {
        let victims: Vec<woc_lrec::LrecId> = woc
            .store
            .live_ids()
            .into_iter()
            .filter(|&id| {
                let docs = woc.web.docs_of_kind(id, AssocKind::ExtractedFrom);
                !docs.is_empty() && docs.iter().all(|d| removed.contains(d))
            })
            .collect();
        for id in victims {
            woc.store
                .retract(id)
                .expect("invariant: live_ids() yields retractable records");
            woc.web.remove_record(id);
            report.records_retracted += 1;
        }
    }

    // Rebuild the record index (segment-rebuild model) and the document
    // plane: removed and rewritten pages must stop serving their old text.
    woc.record_index = flat_record_index(&woc.store);
    (woc.doc_index, woc.doc_urls, woc.doc_titles) =
        document_plane(new.pages(), &woc.lineage, index_texts);

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build, PipelineConfig};
    use woc_lrec::AttrValue;
    use woc_webgen::{
        churn_restaurants, generate_corpus, CorpusConfig, Node, Page, PageKind, PageTruth, World,
        WorldConfig,
    };

    #[test]
    fn unchanged_corpus_is_free() {
        let world = World::generate(WorldConfig::tiny(211));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(13));
        let mut woc = build(&corpus, &PipelineConfig::default());
        let report = recrawl(&mut woc, &corpus, &corpus, Tick(50));
        assert_eq!(report.pages_reprocessed, 0);
        assert_eq!(report.records_updated, 0);
        assert_eq!(report.cost_ratio(), 0.0);
    }

    #[test]
    fn churn_triggers_partial_reprocessing_and_updates() {
        let cfg = CorpusConfig::tiny(14);
        let mut world = World::generate(WorldConfig::tiny(212));
        let corpus_v1 = generate_corpus(&world, &cfg);
        let mut woc = build(&corpus_v1, &PipelineConfig::default());
        let before_live = woc.store.live_count();

        // Change some phone numbers/hours in the world and recrawl.
        let events = churn_restaurants(&mut world, 0.4, Tick(10), 99);
        assert!(!events.is_empty());
        let corpus_v2 = generate_corpus(&world, &cfg);
        let report = recrawl(&mut woc, &corpus_v1, &corpus_v2, Tick(60));

        assert!(report.pages_reprocessed > 0, "changed pages reprocessed");
        assert!(
            report.pages_reprocessed < report.pages_total,
            "incremental: {} of {} pages",
            report.pages_reprocessed,
            report.pages_total
        );
        assert!(
            report.records_updated > 0,
            "existing records updated in place"
        );
        // No duplicate explosion: new records only for genuinely new content.
        assert!(
            woc.store.live_count() <= before_live + report.records_created,
            "maintenance must not duplicate records"
        );
    }

    #[test]
    fn vanished_pages_tombstone_their_records() {
        let cfg = CorpusConfig::tiny(16);
        let world = World::generate(WorldConfig::tiny(214));
        let corpus_v1 = generate_corpus(&world, &cfg);
        let mut woc = build(&corpus_v1, &PipelineConfig::default());

        // Pick a live extracted record and delete every page it came from.
        let victim = woc
            .store
            .live_ids()
            .into_iter()
            .find(|&id| {
                !woc.web
                    .docs_of_kind(id, AssocKind::ExtractedFrom)
                    .is_empty()
            })
            .expect("fixture has extracted records");
        let doomed: std::collections::HashSet<String> = woc
            .web
            .docs_of_kind(victim, AssocKind::ExtractedFrom)
            .into_iter()
            .map(str::to_string)
            .collect();
        let mut corpus_v2 = WebCorpus::new();
        for p in corpus_v1.pages() {
            if !doomed.contains(&p.url) {
                corpus_v2.add(p.clone());
            }
        }
        let report = recrawl(&mut woc, &corpus_v1, &corpus_v2, Tick(60));

        assert!(report.records_retracted >= 1);
        assert!(
            woc.store.resolve(victim).is_none(),
            "record without surviving sources must be retracted"
        );
        assert!(!woc.store.live_ids().contains(&victim));
        assert!(
            woc.web.docs_of(victim).is_empty(),
            "its associations must be scrubbed"
        );
        assert!(
            !woc.record_index.indexed_ids().contains(&victim),
            "its postings must be gone"
        );
    }

    #[test]
    fn recrawl_refreshes_the_document_plane() {
        let note = |path: &str, title: &str| Page {
            url: format!("http://notes.example.com/{path}"),
            site: "notes.example.com".into(),
            title: title.into(),
            dom: Node::elem("html").child(Node::elem("p").text_child("nothing to extract")),
            truth: PageTruth {
                kind: PageKind::Article,
                about: None,
                records: vec![],
                mentions: vec![],
            },
        };
        let world = World::generate(WorldConfig::tiny(215));
        let crawl = generate_corpus(&world, &CorpusConfig::tiny(17));
        let mut corpus_v1 = crawl.clone();
        corpus_v1.add(note("gone.html", "zyzzyva"));
        corpus_v1.add(note("kept.html", "quokka"));
        let mut corpus_v2 = crawl;
        corpus_v2.add(note("kept.html", "wombat"));

        let mut woc = build(&corpus_v1, &PipelineConfig::default());
        assert_eq!(woc.doc_index.search("zyzzyva", 3).len(), 1);
        recrawl(&mut woc, &corpus_v1, &corpus_v2, Tick(60));

        let gone = "http://notes.example.com/gone.html";
        assert!(!woc.doc_urls.iter().any(|u| u == gone));
        assert!(woc.doc_index.search("zyzzyva", 3).is_empty());
        assert!(woc.doc_index.search("quokka", 3).is_empty());
        let hits = woc.doc_index.search("wombat", 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(
            woc.doc_url(hits[0].doc),
            "http://notes.example.com/kept.html"
        );
        assert_eq!(woc.doc_titles[hits[0].doc.0 as usize], "wombat");
        let fresh = build(&corpus_v2, &PipelineConfig::default());
        assert_eq!(woc.doc_index.digest(), fresh.doc_index.digest());
        assert_eq!(woc.doc_urls, fresh.doc_urls);
    }

    #[test]
    fn updated_phone_lands_on_existing_record() {
        let cfg = CorpusConfig::tiny(15);
        let mut world = World::generate(WorldConfig::tiny(213));
        let corpus_v1 = generate_corpus(&world, &cfg);
        let mut woc = build(&corpus_v1, &PipelineConfig::default());

        // Find a restaurant whose phone churns.
        let events = churn_restaurants(&mut world, 0.8, Tick(10), 7);
        let phone_change = events.iter().find_map(|e| match e {
            woc_webgen::ChurnEvent::PhoneChanged(id, p) => Some((*id, p.clone())),
            _ => None,
        });
        let Some((world_id, new_phone)) = phone_change else {
            panic!("no phone churn at rate 0.8");
        };
        let name = world.attr(world_id, "name");
        let corpus_v2 = generate_corpus(&world, &cfg);
        recrawl(&mut woc, &corpus_v1, &corpus_v2, Tick(60));

        // Some live record with that name now carries the new phone, and it
        // is a pre-existing record (updated in place, not a duplicate).
        let carriers: Vec<_> = woc
            .store
            .by_concept(woc.concepts.restaurant)
            .into_iter()
            .filter_map(|id| woc.store.latest(id))
            .filter(|r| {
                r.best_string("name").unwrap_or_default().contains(&name)
                    && r.get("phone").iter().any(|e| match &e.value {
                        AttrValue::Phone(p) => *p == new_phone,
                        _ => false,
                    })
            })
            .collect();
        assert!(
            !carriers.is_empty(),
            "some record named {name} should carry churned phone {new_phone}"
        );
        assert!(
            carriers.iter().any(|r| woc.store.num_versions(r.id()) > 1),
            "the carrier should be an updated pre-existing record"
        );
    }
}
