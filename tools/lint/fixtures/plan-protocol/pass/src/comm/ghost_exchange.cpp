// Fixture: the boundary exchange owns the plan's task protocol —
// exempt by path.
void armWriters(const BoundaryPlan& plan, PhaseState& st)
{
    const auto& writers = plan.slotWriters(PlanPhase::Bounds);
    for (std::size_t s = 0; s < plan.localSendIds(PlanPhase::Bounds).size();
         ++s)
        st.writersLeft[s] = static_cast<int>(writers[s].size());
}
