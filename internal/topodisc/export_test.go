package topodisc

// SnapshotAll runs one discovery period — the ticker's callback — on demand.
func (t *Tool) SnapshotAll() { t.snapshotAll() }
