//! Negative tests for the typed [`AssociativeMemory`] constructors and
//! accessors, plus live growth (`add_class`). Copy-on-write publishing
//! of a live memory is the serving engine's (`nshd-core`).

use nshd_hdc::{AssociativeMemory, BipolarHv, MemoryError};

#[test]
fn try_from_classes_rejects_empty_matrix() {
    assert_eq!(AssociativeMemory::try_from_classes(vec![]), Err(MemoryError::EmptyClasses));
}

#[test]
fn try_from_classes_rejects_zero_dim_rows() {
    let rows = vec![vec![], vec![]];
    assert_eq!(AssociativeMemory::try_from_classes(rows), Err(MemoryError::ZeroDim));
}

#[test]
fn try_from_classes_rejects_ragged_rows() {
    let rows = vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]];
    assert_eq!(
        AssociativeMemory::try_from_classes(rows),
        Err(MemoryError::Ragged { class: 1, expected: 2, actual: 1 })
    );
}

#[test]
fn try_from_classes_accepts_well_formed_matrix() {
    let mem = AssociativeMemory::try_from_classes(vec![vec![1.0, -2.0], vec![0.5, 0.0]])
        .expect("well-formed matrix");
    assert_eq!(mem.num_classes(), 2);
    assert_eq!(mem.dim(), 2);
    assert_eq!(mem.class(0), &[1.0, -2.0]);
}

#[test]
#[should_panic(expected = "ragged")]
fn from_classes_still_panics_on_ragged_rows() {
    AssociativeMemory::from_classes(vec![vec![1.0], vec![1.0, 2.0]]);
}

#[test]
#[should_panic(expected = "no rows")]
fn from_classes_still_panics_on_empty_matrix() {
    AssociativeMemory::from_classes(vec![]);
}

#[test]
fn try_class_rejects_out_of_range_index() {
    let mut mem = AssociativeMemory::new(3, 8);
    assert!(mem.try_class(2).is_ok());
    assert_eq!(
        mem.try_class(3).err(),
        Some(MemoryError::ClassOutOfRange { class: 3, num_classes: 3 })
    );
    assert_eq!(
        mem.try_class_mut(7).err(),
        Some(MemoryError::ClassOutOfRange { class: 7, num_classes: 3 })
    );
}

#[test]
fn try_class_mut_writes_through() {
    let mut mem = AssociativeMemory::new(2, 3);
    mem.try_class_mut(1).expect("in range").copy_from_slice(&[1.0, 2.0, 3.0]);
    assert_eq!(mem.class(1), &[1.0, 2.0, 3.0]);
}

#[test]
fn memory_error_messages_name_the_problem() {
    assert!(MemoryError::EmptyClasses.to_string().contains("no rows"));
    assert!(MemoryError::ZeroDim.to_string().contains("zero-dimensional"));
    let ragged = MemoryError::Ragged { class: 4, expected: 16, actual: 9 };
    assert!(ragged.to_string().contains("row 4"));
    let range = MemoryError::ClassOutOfRange { class: 9, num_classes: 3 };
    assert!(range.to_string().contains("class 9"));
}

#[test]
fn add_class_grows_and_scores_zero_until_bundled() {
    let mut mem = AssociativeMemory::new(2, 128);
    let h = BipolarHv::from_signs(&[1.0; 128]);
    mem.bundle(0, &h);
    let new = mem.add_class();
    assert_eq!(new, 2);
    assert_eq!(mem.num_classes(), 3);
    assert_eq!(mem.similarities(&h)[new], 0.0, "fresh class must score 0");
    mem.bundle(new, &h);
    mem.bundle(new, &h);
    assert_eq!(mem.predict(&h), new, "last-max tie-break favours the newest bundled class");
}
