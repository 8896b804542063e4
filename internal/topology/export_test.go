package topology

// StrayDeliveries reports whether a domain's delivery registry or pool
// still reaches a record past its length.
func StrayDeliveries(d *Domain) bool { return staleTail(d.liveDel) || staleTail(d.dpool) }
