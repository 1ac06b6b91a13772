// Fixture: a stage-graph builder that wires poll tasks from the plan's
// slot tables itself — must trip plan-protocol.
void wirePolls(TaskList& tl, const BoundaryPlan& plan,
               const std::vector<TaskId>& sends)
{
    const auto& writers = plan.slotWriters(PlanPhase::Bounds);
    for (int slot : plan.subPacks()[0].recvSlots[0])
        tl.addTask("poll", pollFn(slot), {sends[writers[slot][0]]});
}
