// Fixture: the driver wires compute tasks through the exchange's task
// ids and subPackOf() only. Mentioning recvSlots or slotWriters() in a
// comment is fine.
void wireCompute(TaskList& tl, GhostExchange& exchange, MeshBlock& block)
{
    const auto bounds = exchange.addBoundsTasks(tl);
    const auto p = exchange.plan().subPackOf(block.gid());
    tl.addTask("CalculateFluxes", fluxFn(block), {bounds.set[p]});
}
